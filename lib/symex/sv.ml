module Term = Eywa_solver.Term
module Solve = Eywa_solver.Solve
module Ast = Eywa_minic.Ast
module Value = Eywa_minic.Value

type t =
  | Sunit
  | Sscalar of Ast.ty * Term.t
  | Sstring of Term.t array
  | Sstruct of string * (string * t) list
  | Sarray of t array

let rec of_value = function
  | Value.Vunit -> Sunit
  | Value.Vbool b -> Sscalar (Ast.Tbool, Term.of_bool b)
  | Value.Vchar c -> Sscalar (Ast.Tchar, Term.const (Char.code c))
  | Value.Vint n -> Sscalar (Ast.Tint 32, Term.const n)
  | Value.Venum (e, i) -> Sscalar (Ast.Tenum e, Term.const i)
  | Value.Vstring raw ->
      Sstring (Array.init (String.length raw) (fun i -> Term.const (Char.code raw.[i])))
  | Value.Vstruct (n, fs) -> Sstruct (n, List.map (fun (f, v) -> (f, of_value v)) fs)
  | Value.Varray vs -> Sarray (Array.map of_value vs)

let scalar_term = function
  | Sscalar (_, t) -> t
  | Sunit | Sstring _ | Sstruct _ | Sarray _ ->
      invalid_arg "Sv.scalar_term: not a scalar"

let concrete_string ?(bound = 0) s =
  let size = max bound (String.length s) + 1 in
  Sstring
    (Array.init size (fun i ->
         if i < String.length s then Term.const (Char.code s.[i]) else Term.const 0))

let symbolic_string ?(name = "str") ~alphabet n =
  Sstring
    (Array.init (n + 1) (fun i ->
         if i = n then Term.const 0
         else
           Term.var
             (Term.fresh_var ~name:(Printf.sprintf "%s[%d]" name i) Term.Schar alphabet)))

let fresh_scalar ?(name = "x") ty ~domain =
  let sort =
    match ty with
    | Ast.Tbool -> Term.Sbool
    | Ast.Tchar -> Term.Schar
    | Ast.Tint w -> Term.Sint w
    | Ast.Tenum e -> Term.Senum (e, Array.length domain)
    | Ast.Tvoid | Ast.Tstring | Ast.Tstruct _ | Ast.Tarray _ ->
        invalid_arg "Sv.fresh_scalar: not a scalar type"
  in
  Sscalar (ty, Term.var (Term.fresh_var ~name sort domain))

(* Variables the solver never constrained default to a domain element;
   [rotate] picks which one, so re-sampling a path with different
   rotations diversifies the unconstrained inputs too. *)
let default_value ~rotate (v : Term.var) =
  let len = Array.length v.Term.domain in
  v.Term.domain.(Term.rotate_index ~rotate ~vid:v.Term.vid len)

(* One environment per concretization: a leaf reads its atoms by vid
   from the model, and an atom the model leaves unassigned takes its
   rotated default. *)
let concretize ?(rotate = 0) model sv =
  let env v =
    let x = Solve.lookup model v.Term.vid in
    if x = Solve.unassigned then default_value ~rotate v else x
  in
  let rec go = function
    | Sunit -> Value.Vunit
    | Sscalar (ty, t) -> Value.of_int ty (Term.eval_var env t)
    | Sstring cells ->
        Value.Vstring
          (String.init (Array.length cells) (fun i ->
               Char.chr (Term.eval_var env cells.(i) land 0xff)))
    | Sstruct (n, fs) ->
        Value.Vstruct (n, List.map (fun (f, v) -> (f, go v)) fs)
    | Sarray vs -> Value.Varray (Array.map go vs)
  in
  go sv

let atoms v =
  let seen = Hashtbl.create 16 in
  let out = ref [] in
  let add t =
    List.iter
      (fun var ->
        if not (Hashtbl.mem seen var.Term.vid) then begin
          Hashtbl.add seen var.Term.vid ();
          out := var :: !out
        end)
      (Term.vars t)
  in
  let rec go = function
    | Sunit -> ()
    | Sscalar (_, t) -> add t
    | Sstring cells -> Array.iter add cells
    | Sstruct (_, fs) -> List.iter (fun (_, v) -> go v) fs
    | Sarray vs -> Array.iter go vs
  in
  go v;
  List.rev !out

let rec pp ppf = function
  | Sunit -> Format.fprintf ppf "()"
  | Sscalar (ty, t) -> Format.fprintf ppf "(%s)%a" (Ast.ty_to_string ty) Term.pp t
  | Sstring cells ->
      Format.fprintf ppf "str[%a]"
        (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ",") Term.pp)
        (Array.to_list cells)
  | Sstruct (n, fs) ->
      Format.fprintf ppf "%s{%a}" n
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.fprintf ppf "; ")
           (fun ppf (f, v) -> Format.fprintf ppf "%s=%a" f pp v))
        fs
  | Sarray vs ->
      Format.fprintf ppf "[|%a|]"
        (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf "; ") pp)
        (Array.to_list vs)
