module Term = Eywa_solver.Term

type t =
  | Empty
  | Char of char
  | Class of (char * char) list
  | Any
  | Seq of t * t
  | Alt of t * t
  | Star of t

exception Parse_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Parse_error s)) fmt

(* ----- pattern parser ----- *)

type pstate = { src : string; mutable pos : int }

let peek ps = if ps.pos < String.length ps.src then Some ps.src.[ps.pos] else None

let advance ps =
  let c = ps.src.[ps.pos] in
  ps.pos <- ps.pos + 1;
  c

let parse_class ps =
  (* just past '['; no negation support *)
  let ranges = ref [] in
  let rec loop () =
    match peek ps with
    | None -> fail "unterminated character class"
    | Some ']' ->
        ignore (advance ps);
        List.rev !ranges
    | Some _ ->
        let c = advance ps in
        let c = if c = '\\' then advance ps else c in
        if peek ps = Some '-' && ps.pos + 1 < String.length ps.src
           && ps.src.[ps.pos + 1] <> ']' then begin
          ignore (advance ps);
          let hi = advance ps in
          if hi < c then fail "inverted range %c-%c" c hi;
          ranges := (c, hi) :: !ranges
        end
        else ranges := (c, c) :: !ranges;
        loop ()
  in
  match loop () with [] -> fail "empty character class" | rs -> Class rs

let rec parse_alt ps =
  let lhs = parse_seq ps in
  match peek ps with
  | Some '|' ->
      ignore (advance ps);
      Alt (lhs, parse_alt ps)
  | _ -> lhs

and parse_seq ps =
  let rec loop acc =
    match peek ps with
    | None | Some '|' | Some ')' -> acc
    | Some _ -> loop (Seq (acc, parse_postfix ps))
  in
  match peek ps with
  | None | Some '|' | Some ')' -> Empty
  | Some _ ->
      let first = parse_postfix ps in
      loop first

and parse_postfix ps =
  let atom = parse_atom ps in
  let rec loop r =
    match peek ps with
    | Some '*' -> ignore (advance ps); loop (Star r)
    | Some '+' -> ignore (advance ps); loop (Seq (r, Star r))
    | Some '?' -> ignore (advance ps); loop (Alt (r, Empty))
    | _ -> r
  in
  loop atom

and parse_atom ps =
  match advance ps with
  | '[' -> parse_class ps
  | '(' ->
      let r = parse_alt ps in
      (match peek ps with
      | Some ')' -> ignore (advance ps); r
      | _ -> fail "unterminated group")
  | '.' -> Any
  | '\\' ->
      if peek ps = None then fail "trailing backslash";
      Char (advance ps)
  | ('*' | '+' | '?' | ')' | ']' | '|') as c -> fail "misplaced %C" c
  | c -> Char c

let parse pattern =
  let ps = { src = pattern; pos = 0 } in
  let r = parse_alt ps in
  if ps.pos < String.length pattern then fail "trailing input at %d" ps.pos;
  r

(* ----- NFA (Thompson construction) ----- *)

type label = Lchar of char | Lclass of (char * char) list | Lany

type nfa = {
  states : int;
  start : int;
  accept : int;
  trans : (int * label * int) list;
  eps : (int * int) list;
}

let compile re =
  let next = ref 0 in
  let fresh () =
    let s = !next in
    incr next;
    s
  in
  let trans = ref [] and eps = ref [] in
  let edge a l b = trans := (a, l, b) :: !trans in
  let eedge a b = eps := (a, b) :: !eps in
  (* returns (in, out) state pair *)
  let rec go = function
    | Empty ->
        let a = fresh () and b = fresh () in
        eedge a b;
        (a, b)
    | Char c ->
        let a = fresh () and b = fresh () in
        edge a (Lchar c) b;
        (a, b)
    | Class rs ->
        let a = fresh () and b = fresh () in
        edge a (Lclass rs) b;
        (a, b)
    | Any ->
        let a = fresh () and b = fresh () in
        edge a Lany b;
        (a, b)
    | Seq (r1, r2) ->
        let a1, b1 = go r1 in
        let a2, b2 = go r2 in
        eedge b1 a2;
        (a1, b2)
    | Alt (r1, r2) ->
        let a = fresh () and b = fresh () in
        let a1, b1 = go r1 in
        let a2, b2 = go r2 in
        eedge a a1; eedge a a2; eedge b1 b; eedge b2 b;
        (a, b)
    | Star r ->
        let a = fresh () and b = fresh () in
        let ai, bi = go r in
        eedge a ai; eedge bi a; eedge a b;
        (a, b)
  in
  let start, accept = go re in
  { states = !next; start; accept; trans = List.rev !trans; eps = List.rev !eps }

(* Reflexive-transitive closure of epsilon edges, as a reachability
   matrix. State counts are tiny (Thompson is linear in the pattern). *)
let eps_closure_matrix nfa =
  let m = Array.make_matrix nfa.states nfa.states false in
  for i = 0 to nfa.states - 1 do m.(i).(i) <- true done;
  List.iter (fun (a, b) -> m.(a).(b) <- true) nfa.eps;
  (* Floyd-Warshall on booleans *)
  for k = 0 to nfa.states - 1 do
    for i = 0 to nfa.states - 1 do
      if m.(i).(k) then
        for j = 0 to nfa.states - 1 do
          if m.(k).(j) then m.(i).(j) <- true
        done
    done
  done;
  m

let label_matches lab c =
  match lab with
  | Lchar x -> c = x
  | Lclass rs -> List.exists (fun (lo, hi) -> lo <= c && c <= hi) rs
  | Lany -> c <> '\000'

(* Compiles the NFA and its epsilon closure once; the returned closure
   only simulates, so a guard called once per execution pays for the
   construction once per harness. *)
let matcher re =
  let nfa = compile re in
  let closure = eps_closure_matrix nfa in
  let close set =
    let out = Array.make nfa.states false in
    Array.iteri (fun q v -> if v then
      for q' = 0 to nfa.states - 1 do
        if closure.(q).(q') then out.(q') <- true
      done) set;
    out
  in
  let init = close (Array.init nfa.states (fun q -> q = nfa.start)) in
  fun s ->
    let cur = ref init in
    String.iter
      (fun c ->
        let next = Array.make nfa.states false in
        List.iter
          (fun (a, lab, b) -> if !cur.(a) && label_matches lab c then next.(b) <- true)
          nfa.trans;
        cur := close next)
      s;
    !cur.(nfa.accept)

let matches re s = matcher re s

let matches_pattern pat s = matches (parse pat) s

(* ----- symbolic compilation ----- *)

let label_term lab cell =
  match lab with
  | Lchar c -> Term.eq cell (Term.const (Char.code c))
  | Lclass rs ->
      List.fold_left
        (fun acc (lo, hi) ->
          Term.or_ acc
            (Term.and_
               (Term.le (Term.const (Char.code lo)) cell)
               (Term.le cell (Term.const (Char.code hi)))))
        Term.ff rs
  | Lany -> Term.neq cell (Term.const 0)

let compile_term re cells =
  let nfa = compile re in
  let closure = eps_closure_matrix nfa in
  let n = Array.length cells in
  (* reach.(q) = term: NFA is in q after consuming the prefix read so
     far, all of it non-NUL. *)
  let close raw =
    Array.init nfa.states (fun q' ->
        let sources = ref Term.ff in
        for q = 0 to nfa.states - 1 do
          if closure.(q).(q') then sources := Term.or_ !sources raw.(q)
        done;
        !sources)
  in
  let init = Array.init nfa.states (fun q -> if q = nfa.start then Term.tt else Term.ff) in
  let reach = ref (close init) in
  let result = ref Term.ff in
  for i = 0 to n - 1 do
    let cell = cells.(i) in
    (* the string may end here *)
    let ends_here = Term.eq cell (Term.const 0) in
    result := Term.or_ !result (Term.and_ (!reach).(nfa.accept) ends_here);
    if i < n - 1 then begin
      let not_nul = Term.neq cell (Term.const 0) in
      let raw =
        Array.init nfa.states (fun q' ->
            List.fold_left
              (fun acc (a, lab, b) ->
                if b = q' then
                  Term.or_ acc
                    (Term.and_ (!reach).(a) (Term.and_ not_nul (label_term lab cell)))
                else acc)
              Term.ff nfa.trans)
      in
      reach := close raw
    end
  done;
  !result

let alphabet_of re =
  let out = ref [] in
  let add c = if not (List.mem c !out) then out := c :: !out in
  let rec go = function
    | Empty | Any -> ()
    | Char c -> add c
    | Class rs -> List.iter (fun (lo, hi) ->
        for i = Char.code lo to Char.code hi do add (Char.chr i) done) rs
    | Seq (a, b) | Alt (a, b) -> go a; go b
    | Star a -> go a
  in
  go re;
  List.sort compare !out

let rec pp ppf = function
  | Empty -> Format.fprintf ppf "()"
  | Char c -> Format.fprintf ppf "%c" c
  | Class rs ->
      Format.fprintf ppf "[%s]"
        (String.concat ""
           (List.map
              (fun (lo, hi) ->
                if lo = hi then String.make 1 lo else Printf.sprintf "%c-%c" lo hi)
              rs))
  | Any -> Format.fprintf ppf "."
  | Seq (a, b) -> Format.fprintf ppf "%a%a" pp a pp b
  | Alt (a, b) -> Format.fprintf ppf "(%a|%a)" pp a pp b
  | Star a -> Format.fprintf ppf "(%a)*" pp a
