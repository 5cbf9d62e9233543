module Ast = Eywa_minic.Ast
module Value = Eywa_minic.Value

type kind = Byte | Arith | Enum | Havoc | Splice

let all = [ Byte; Arith; Enum; Havoc; Splice ]

let kind_to_string = function
  | Byte -> "byte"
  | Arith -> "arith"
  | Enum -> "enum"
  | Havoc -> "havoc"
  | Splice -> "splice"

(* ----- scalar sites ----- *)

(* A mutation targets one scalar "site" of the input value tree: a
   bool/char/int/enum leaf or a single byte of a string buffer.
   [which] restricts the site class: [`Enum] targets enum leaves only
   (the Enum mutator), [`All] everything. *)

type site =
  | Sbool of bool
  | Schar of char
  | Sint of int
  | Senum of string * int
  | Sbyte of char

(* The sites of a value of each class, (all, enum), in one walk. They
   depend on the value's shape alone: string lengths, array sizes and
   struct fields, which no mutator changes. *)
let rec count_sites v =
  match v with
  | Value.Vunit -> (0, 0)
  | Value.Vbool _ | Value.Vchar _ | Value.Vint _ -> (1, 0)
  | Value.Venum _ -> (1, 1)
  | Value.Vstring raw -> (String.length raw, 0)
  | Value.Vstruct (_, fs) ->
      List.fold_left
        (fun (a, e) (_, f) ->
          let a', e' = count_sites f in
          (a + a', e + e'))
        (0, 0) fs
  | Value.Varray vs ->
      Array.fold_left
        (fun (a, e) f ->
          let a', e' = count_sites f in
          (a + a', e + e'))
        (0, 0) vs

type sites = { all : int list; enum : int list }

let sites inputs =
  let counts = List.map (fun (_, v) -> count_sites v) inputs in
  { all = List.map fst counts; enum = List.map snd counts }

(* Rewrite the [target]-th site (in traversal order) with [f]; all
   other sites — and the whole shape — are untouched. Only the path
   down to the target is rebuilt: every subtree beside it is returned
   physically, and the walk stops at the target. [k] counts the sites
   still to pass; it drops below 0 once the target is rewritten. *)
let rewrite_site which target f v =
  let k = ref target in
  let take () =
    let hit = !k = 0 in
    k := if hit then -1 else !k - 1;
    hit
  in
  let rec go v =
    match v with
    | Value.Vunit -> v
    | Value.Vbool b -> if which = `All && take () then f (Sbool b) else v
    | Value.Vchar c -> if which = `All && take () then f (Schar c) else v
    | Value.Vint n -> if which = `All && take () then f (Sint n) else v
    | Value.Venum (e, i) -> if take () then f (Senum (e, i)) else v
    | Value.Vstring raw ->
        let n = String.length raw in
        if which = `Enum then v
        else if !k >= n then begin
          k := !k - n;
          v
        end
        else begin
          let i = !k in
          k := -1;
          match f (Sbyte raw.[i]) with
          | Value.Vchar c ->
              let b = Bytes.of_string raw in
              Bytes.set b i c;
              Value.Vstring (Bytes.unsafe_to_string b)
          | _ -> v
        end
    | Value.Vstruct (n, fs) ->
        let fs' = fields fs in
        if fs' == fs then v else Value.Vstruct (n, fs')
    | Value.Varray vs ->
        let rec scan i =
          if i = Array.length vs then v
          else
            let e = go vs.(i) in
            if !k >= 0 then scan (i + 1)
            else begin
              let copy = Array.copy vs in
              copy.(i) <- e;
              Value.Varray copy
            end
        in
        scan 0
  and fields fs =
    match fs with
    | [] -> fs
    | ((fn, fv) as field) :: rest ->
        let fv' = go fv in
        if !k < 0 then (fn, fv') :: rest
        else
          let rest' = fields rest in
          if rest' == rest then fs else field :: rest'
  in
  go v

(* ----- the individual mutators ----- *)

let interesting_ints =
  [ 0; 1; 2; 7; 8; 15; 16; 31; 32; 63; 64; 127; 128; 255; 256; 1023; 1024 ]

let enum_members program ename =
  match Ast.find_enum program ename with
  | Some e -> List.length e.Ast.members
  | None -> 0

let char_pool alphabet = if alphabet = [] then [ '\000' ] else '\000' :: alphabet

let byte_site ~program ~alphabet ~rng site =
  let pool = char_pool alphabet in
  match site with
  | Sbool b -> Value.Vbool (not b)
  | Schar _ | Sbyte _ -> Value.Vchar (Rng.pick rng pool)
  | Sint _ -> Value.Vint (Rng.pick rng interesting_ints)
  | Senum (e, i) ->
      let n = enum_members program e in
      Value.Venum (e, if n > 0 then Rng.int rng n else i)

let arith_site ~program ~alphabet ~rng site =
  let delta () =
    let d = 1 + Rng.int rng 8 in
    if Rng.bool rng then d else -d
  in
  let shift_char c =
    let pool = char_pool alphabet in
    let len = List.length pool in
    let idx =
      let rec find i = function
        | [] -> None
        | x :: rest -> if x = c then Some i else find (i + 1) rest
      in
      find 0 pool
    in
    match idx with
    | None -> Rng.pick rng pool
    | Some i -> List.nth pool (((i + delta ()) mod len + len) mod len)
  in
  match site with
  | Sbool b -> Value.Vbool (not b)
  | Schar c | Sbyte c -> Value.Vchar (shift_char c)
  | Sint n -> Value.Vint (n + delta ())
  | Senum (e, i) ->
      let n = enum_members program e in
      if n > 0 then Value.Venum (e, ((i + delta ()) mod n + n) mod n)
      else Value.Venum (e, i)

(* Mutate one site across the whole argument vector: sites are counted
   over the concatenation of the argument value trees, so every leaf
   is equally likely regardless of which argument holds it. Only the
   argument that holds the site is rewritten; the others are shared.
   [counts] holds each argument's sites of the class. [None] (and no
   rng draw) when the vector has no site of the class. *)
let mutate_one which ~counts f inputs rng =
  let total = List.fold_left ( + ) 0 counts in
  if total = 0 then None
  else begin
    let rec go target inputs counts =
      match (inputs, counts) with
      | ((n, v) as arg) :: rest, here :: counts ->
          if target < here then (n, rewrite_site which target f v) :: rest
          else arg :: go (target - here) rest counts
      | _ -> inputs
    in
    Some (go (Rng.int rng total) inputs counts)
  end

let rec shape_compatible a b =
  match (a, b) with
  | Value.Vunit, Value.Vunit
  | Value.Vbool _, Value.Vbool _
  | Value.Vchar _, Value.Vchar _
  | Value.Vint _, Value.Vint _ ->
      true
  | Value.Venum (e, _), Value.Venum (f, _) -> e = f
  | Value.Vstring x, Value.Vstring y -> String.length x = String.length y
  | Value.Vstruct (n, fs), Value.Vstruct (m, gs) ->
      n = m
      && List.length fs = List.length gs
      && List.for_all2
           (fun (f, v) (g, w) -> f = g && shape_compatible v w)
           fs gs
  | Value.Varray x, Value.Varray y ->
      Array.length x = Array.length y
      && (Array.length x = 0 || shape_compatible x.(0) y.(0))
  | _ -> false

(* Every mutant keeps its parent's shape, so one count of the sites
   serves a whole havoc burst. *)
let apply ~sites ~program ~alphabet ~rng kind ~other inputs =
  let one which f inputs =
    let counts = match which with `All -> sites.all | `Enum -> sites.enum in
    mutate_one which ~counts f inputs rng
  in
  let rec go kind inputs =
    match kind with
    | Byte ->
        Option.value ~default:inputs (one `All (byte_site ~program ~alphabet ~rng) inputs)
    | Arith ->
        Option.value ~default:inputs (one `All (arith_site ~program ~alphabet ~rng) inputs)
    | Enum -> (
        match one `Enum (byte_site ~program ~alphabet ~rng) inputs with
        | Some mutant -> mutant
        | None ->
            (* no enum anywhere in the signature: degrade gracefully *)
            go Byte inputs)
    | Havoc ->
        let rounds = 1 + Rng.int rng 4 in
        let rec burst n acc =
          if n = 0 then acc else burst (n - 1) (go (Rng.pick rng [ Byte; Arith; Enum ]) acc)
        in
        burst rounds inputs
    | Splice -> (
        match other with
        | None -> go Havoc inputs
        | Some partner ->
            List.map
              (fun (n, v) ->
                match List.assoc_opt n partner with
                | Some w when shape_compatible v w && Rng.bool rng -> (n, w)
                | _ -> (n, v))
              inputs)
  in
  go kind inputs
