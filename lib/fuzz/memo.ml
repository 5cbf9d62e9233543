module Value = Eywa_minic.Value

type input = (string * Value.t) list

(* An FNV-1a style step over whole OCaml ints; the prime fits in 63
   bits. *)
let step h x = (h lxor x) * 0x100000001b3

(* Every leaf is folded in, each behind a constructor tag, and a string
   byte by byte, whole. Names (argument, struct, field and enum type
   names) are left out: they are the same across one draw's inputs, and
   [equal] compares them. *)
let rec fold h (v : Value.t) =
  match v with
  | Value.Vunit -> step h 1
  | Value.Vbool b -> step h (if b then 3 else 2)
  | Value.Vchar c -> step (step h 4) (Char.code c)
  | Value.Vint n -> step (step h 5) n
  | Value.Venum (_, i) -> step (step h 6) i
  | Value.Vstring s ->
      let h = ref (step (step h 7) (String.length s)) in
      for i = 0 to String.length s - 1 do
        h := step !h (Char.code (String.unsafe_get s i))
      done;
      !h
  | Value.Vstruct (_, fs) -> List.fold_left (fun h (_, v) -> fold h v) (step h 8) fs
  | Value.Varray vs -> Array.fold_left fold (step (step h 9) (Array.length vs)) vs

(* a final avalanche, so the table's low index bits depend on every
   leaf *)
let finish h =
  let h = (h lxor (h lsr 29)) * 0x3c79ac492ba7b653 in
  let h = (h lxor (h lsr 32)) * 0x1c69b3f74ac4ae35 in
  (h lxor (h lsr 29)) land max_int

let hash (input : input) =
  finish (List.fold_left (fun h (_, v) -> fold h v) 0x2545f4914f6cdd1d input)

let equal (a : input) (b : input) =
  List.equal (fun (n, v) (m, w) -> String.equal n m && Value.equal v w) a b

module Tbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash h = h
end)

(* full hash -> the distinct inputs that have it *)
type t = input list Tbl.t

let create n = Tbl.create (max 16 n)

let add t input =
  let h = hash input in
  match Tbl.find_opt t h with
  | None ->
      Tbl.add t h [ input ];
      true
  | Some bucket ->
      if List.exists (equal input) bucket then false
      else begin
        Tbl.replace t h (input :: bucket);
        true
      end
