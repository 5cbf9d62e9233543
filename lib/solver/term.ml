type sort = Sbool | Schar | Sint of int | Senum of string * int

type var = { vid : int; vname : string; sort : sort; domain : int array }

type t =
  | Const of int
  | Var of var
  | Not of t
  | And of t * t
  | Or of t * t
  | Eq of t * t
  | Lt of t * t
  | Le of t * t
  | Add of t * t
  | Sub of t * t
  | Mul of t * t
  | Div of t * t
  | Mod of t * t
  | Ite of t * t * t

(* Id allocation is per-domain (Domain.DLS), not global: concurrent
   synthesis jobs on a work-pool never share a counter, so identical
   generated code yields identical atom ids whatever domain runs it.
   [with_fresh_ids] gives one job its own allocator starting at 0. *)
let counter_key = Domain.DLS.new_key (fun () -> ref 0)

let counter () = Domain.DLS.get counter_key

(* Hash-consing state, a sibling of [counter_key]: the intern table
   assigns every structurally distinct term a dense id, and the other
   tables memoize by that id. [with_fresh_ids] swaps in a fresh state
   along with the fresh counter; [with_fresh_vids] restarts only the
   counter. A recycled vid is safe under a shared table because a
   variable is its whole record (vid, name, sort, domain): a term of
   one exploration interns to the id of a term of another only when the
   two are the same constraint over the same variables, and so have the
   same free variables too. *)
module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = ( = )

  (* deeper than the stdlib default so big path-condition conjuncts
     don't all land in one bucket; still bounded, so O(1) per call *)
  let hash t = Hashtbl.hash_param 60 120 t
end)

type intern_state = {
  ids : int Tbl.t;  (* term -> dense intern id *)
  mutable next_id : int;
  fvs : (int, var list) Hashtbl.t;  (* intern id -> free vars *)
}

let fresh_intern () =
  { ids = Tbl.create 512; next_id = 0; fvs = Hashtbl.create 512 }

let intern_key = Domain.DLS.new_key fresh_intern

let intern_state () = Domain.DLS.get intern_key

(* [min_int] is [Solve]'s unassigned marker, so no domain may hold it;
   a domain is strictly increasing, so its first element decides. *)
let fresh_var ?(name = "v") sort domain =
  assert (Array.length domain > 0 && domain.(0) <> min_int);
  let c = counter () in
  let vid = !c in
  incr c;
  { vid; vname = name; sort; domain }

let var_count () = !(counter ())

(* Values that share the intern table's lifetime ([scope_local]): each
   registered entry installs a fresh value in the calling domain and
   returns the function that puts the caller's back. Registered at
   module initialisation, before any domain is spawned, and only read
   afterwards. *)
let scoped : (unit -> unit -> unit) list Atomic.t = Atomic.make []

let scope_local init =
  let key = Domain.DLS.new_key (fun () -> lazy (init ())) in
  let install () =
    let saved = Domain.DLS.get key in
    Domain.DLS.set key (lazy (init ()));
    fun () -> Domain.DLS.set key saved
  in
  let rec register () =
    let l = Atomic.get scoped in
    if not (Atomic.compare_and_set scoped l (install :: l)) then register ()
  in
  register ();
  fun () -> Lazy.force (Domain.DLS.get key)

let with_fresh_vids f =
  let saved = Domain.DLS.get counter_key in
  Domain.DLS.set counter_key (ref 0);
  Fun.protect ~finally:(fun () -> Domain.DLS.set counter_key saved) f

let with_fresh_ids f =
  let saved_intern = Domain.DLS.get intern_key in
  let restore = List.map (fun install -> install ()) (Atomic.get scoped) in
  Domain.DLS.set intern_key (fresh_intern ());
  Fun.protect
    ~finally:(fun () ->
      Domain.DLS.set intern_key saved_intern;
      List.iter (fun put_back -> put_back ()) restore)
    (fun () -> with_fresh_vids f)

let intern_id t =
  let s = intern_state () in
  match Tbl.find_opt s.ids t with
  | Some id -> id
  | None ->
      let id = s.next_id in
      s.next_id <- id + 1;
      Tbl.add s.ids t id;
      id

let tt = Const 1
let ff = Const 0
let const n = Const n
let of_bool b = if b then tt else ff
let var v = Var v

(* Truthiness follows C: any non-zero value is true. Smart constructors
   normalise boolean results to 0/1. *)

let is_true = function Const n -> n <> 0 | _ -> false
let is_false = function Const 0 -> true | _ -> false

let not_ = function
  | Const n -> of_bool (n = 0)
  | Not (Eq _ as e) -> e
  | Not (Lt _ as e) -> e
  | Not (Le _ as e) -> e
  | Not (And _ as e) -> e
  | Not (Or _ as e) -> e
  | Not (Not _ as e) -> e
  | t -> Not t

let and_ a b =
  match (a, b) with
  | Const 0, _ | _, Const 0 -> ff
  | Const _, other | other, Const _ -> (
      (* the surviving Const is non-zero *)
      match other with Const n -> of_bool (n <> 0) | _ -> other)
  | _ -> And (a, b)

let or_ a b =
  match (a, b) with
  | Const n, other when n <> 0 -> ignore other; tt
  | other, Const n when n <> 0 -> ignore other; tt
  | Const 0, other | other, Const 0 -> other
  | _ -> Or (a, b)

let eq a b =
  match (a, b) with
  | Const x, Const y -> of_bool (x = y)
  | Var u, Var v when u.vid = v.vid -> tt
  | _ -> Eq (a, b)

let lt a b =
  match (a, b) with
  | Const x, Const y -> of_bool (x < y)
  | Var u, Var v when u.vid = v.vid -> ff
  | _ -> Lt (a, b)

let le a b =
  match (a, b) with
  | Const x, Const y -> of_bool (x <= y)
  | Var u, Var v when u.vid = v.vid -> tt
  | _ -> Le (a, b)

let neq a b = not_ (eq a b)
let gt a b = lt b a
let ge a b = le b a

let add a b =
  match (a, b) with
  | Const x, Const y -> Const (x + y)
  | Const 0, t | t, Const 0 -> t
  | _ -> Add (a, b)

let sub a b =
  match (a, b) with
  | Const x, Const y -> Const (x - y)
  | t, Const 0 -> t
  | _ -> Sub (a, b)

let mul a b =
  match (a, b) with
  | Const x, Const y -> Const (x * y)
  | Const 0, _ | _, Const 0 -> Const 0
  | Const 1, t | t, Const 1 -> t
  | _ -> Mul (a, b)

let safe_div x y = if y = 0 then 0 else x / y
let safe_mod x y = if y = 0 then 0 else x mod y

let div a b =
  match (a, b) with
  | Const x, Const y -> Const (safe_div x y)
  | t, Const 1 -> t
  | _ -> Div (a, b)

let mod_ a b =
  match (a, b) with
  | Const x, Const y -> Const (safe_mod x y)
  | _, Const 1 -> Const 0
  | _ -> Mod (a, b)

let ite c a b =
  match c with
  | Const n -> if n <> 0 then a else b
  | _ -> if a = b then a else Ite (c, a, b)

let compute_vars t =
  let seen = Hashtbl.create 16 in
  let acc = ref [] in
  let rec go = function
    | Const _ -> ()
    | Var v ->
        if not (Hashtbl.mem seen v.vid) then begin
          Hashtbl.add seen v.vid ();
          acc := v :: !acc
        end
    | Not a -> go a
    | And (a, b) | Or (a, b) | Eq (a, b) | Lt (a, b) | Le (a, b)
    | Add (a, b) | Sub (a, b) | Mul (a, b) | Div (a, b) | Mod (a, b) ->
        go a; go b
    | Ite (c, a, b) -> go c; go a; go b
  in
  go t;
  List.rev !acc

let vars t =
  let s = intern_state () in
  let id = intern_id t in
  match Hashtbl.find_opt s.fvs id with
  | Some vs -> vs
  | None ->
      let vs = compute_vars t in
      Hashtbl.add s.fvs id vs;
      vs

let rec eval_var env = function
  | Const n -> n
  | Var v -> env v
  | Not a -> if eval_var env a = 0 then 1 else 0
  | And (a, b) -> if eval_var env a <> 0 && eval_var env b <> 0 then 1 else 0
  | Or (a, b) -> if eval_var env a <> 0 || eval_var env b <> 0 then 1 else 0
  | Eq (a, b) -> if eval_var env a = eval_var env b then 1 else 0
  | Lt (a, b) -> if eval_var env a < eval_var env b then 1 else 0
  | Le (a, b) -> if eval_var env a <= eval_var env b then 1 else 0
  | Add (a, b) -> eval_var env a + eval_var env b
  | Sub (a, b) -> eval_var env a - eval_var env b
  | Mul (a, b) -> eval_var env a * eval_var env b
  | Div (a, b) -> safe_div (eval_var env a) (eval_var env b)
  | Mod (a, b) -> safe_mod (eval_var env a) (eval_var env b)
  | Ite (c, a, b) -> if eval_var env c <> 0 then eval_var env a else eval_var env b

let eval env t = eval_var (fun v -> env v.vid) t

let rec peval env = function
  | Const n -> Some n
  | Var v -> env v.vid
  | Not a -> (
      match peval env a with
      | Some n -> Some (if n = 0 then 1 else 0)
      | None -> None)
  | And (a, b) -> (
      match (peval env a, peval env b) with
      | Some 0, _ | _, Some 0 -> Some 0
      | Some x, Some y -> Some (if x <> 0 && y <> 0 then 1 else 0)
      | _ -> None)
  | Or (a, b) -> (
      match (peval env a, peval env b) with
      | Some x, _ when x <> 0 -> Some 1
      | _, Some y when y <> 0 -> Some 1
      | Some 0, Some 0 -> Some 0
      | _ -> None)
  | Eq (a, b) -> lift2 env (fun x y -> if x = y then 1 else 0) a b
  | Lt (a, b) -> lift2 env (fun x y -> if x < y then 1 else 0) a b
  | Le (a, b) -> lift2 env (fun x y -> if x <= y then 1 else 0) a b
  | Add (a, b) -> lift2 env ( + ) a b
  | Sub (a, b) -> lift2 env ( - ) a b
  | Mul (a, b) -> lift2 env ( * ) a b
  | Div (a, b) -> lift2 env safe_div a b
  | Mod (a, b) -> lift2 env safe_mod a b
  | Ite (c, a, b) -> (
      match peval env c with
      | Some n -> peval env (if n <> 0 then a else b)
      | None -> None)

and lift2 env f a b =
  match (peval env a, peval env b) with
  | Some x, Some y -> Some (f x y)
  | _ -> None

(* Deterministic pseudo-random index for value-order rotation: a plain
   linear formula degenerates on two-element domains (booleans with odd
   ids would never flip), so mix the inputs properly. *)
let rotate_index ~rotate ~vid len =
  if rotate = 0 || len <= 1 then 0
  else begin
    let h = ((vid + 1) * 0x9E3779B1) lxor (rotate * 0x85EBCA77) in
    let h = h lxor (h lsr 13) in
    (h land max_int) mod len
  end

let rec pp ppf = function
  | Const n -> Format.fprintf ppf "%d" n
  | Var v -> Format.fprintf ppf "%s#%d" v.vname v.vid
  | Not a -> Format.fprintf ppf "!(%a)" pp a
  | And (a, b) -> Format.fprintf ppf "(%a && %a)" pp a pp b
  | Or (a, b) -> Format.fprintf ppf "(%a || %a)" pp a pp b
  | Eq (a, b) -> Format.fprintf ppf "(%a == %a)" pp a pp b
  | Lt (a, b) -> Format.fprintf ppf "(%a < %a)" pp a pp b
  | Le (a, b) -> Format.fprintf ppf "(%a <= %a)" pp a pp b
  | Add (a, b) -> Format.fprintf ppf "(%a + %a)" pp a pp b
  | Sub (a, b) -> Format.fprintf ppf "(%a - %a)" pp a pp b
  | Mul (a, b) -> Format.fprintf ppf "(%a * %a)" pp a pp b
  | Div (a, b) -> Format.fprintf ppf "(%a / %a)" pp a pp b
  | Mod (a, b) -> Format.fprintf ppf "(%a %% %a)" pp a pp b
  | Ite (c, a, b) -> Format.fprintf ppf "(%a ? %a : %a)" pp c pp a pp b

let to_string t = Format.asprintf "%a" pp t
