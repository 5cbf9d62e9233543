type t =
  | Vunit
  | Vbool of bool
  | Vchar of char
  | Vint of int
  | Venum of string * int
  | Vstring of string
  | Vstruct of string * (string * t) list
  | Varray of t array

let rec equal a b =
  match (a, b) with
  | Vunit, Vunit -> true
  | Vbool x, Vbool y -> x = y
  | Vchar x, Vchar y -> x = y
  | Vint x, Vint y -> x = y
  | Venum (e, i), Venum (f, j) -> e = f && i = j
  | Vstring x, Vstring y -> x = y
  | Vstruct (n, fs), Vstruct (m, gs) ->
      n = m
      && List.length fs = List.length gs
      && List.for_all2 (fun (f, v) (g, w) -> f = g && equal v w) fs gs
  | Varray x, Varray y ->
      Array.length x = Array.length y
      && Array.for_all2 (fun v w -> equal v w) x y
  | (Vunit | Vbool _ | Vchar _ | Vint _ | Venum _ | Vstring _ | Vstruct _ | Varray _), _
    ->
      false

let truthy = function
  | Vbool b -> b
  | Vchar c -> c <> '\000'
  | Vint n -> n <> 0
  | Venum (_, i) -> i <> 0
  | Vunit | Vstring _ | Vstruct _ | Varray _ ->
      invalid_arg "Value.truthy: not a scalar"

let to_int = function
  | Vbool b -> if b then 1 else 0
  | Vchar c -> Char.code c
  | Vint n -> n
  | Venum (_, i) -> i
  | Vunit | Vstring _ | Vstruct _ | Varray _ ->
      invalid_arg "Value.to_int: not a scalar"

let of_int ty n =
  match ty with
  | Ast.Tbool -> Vbool (n <> 0)
  | Ast.Tchar -> Vchar (Char.chr (n land 0xff))
  | Ast.Tint _ -> Vint n
  | Ast.Tenum e -> Venum (e, n)
  | Ast.Tvoid | Ast.Tstring | Ast.Tstruct _ | Ast.Tarray _ ->
      invalid_arg "Value.of_int: not a scalar type"

let rec default ?(string_bound = 16) program = function
  | Ast.Tvoid -> Vunit
  | Ast.Tbool -> Vbool false
  | Ast.Tchar -> Vchar '\000'
  | Ast.Tint _ -> Vint 0
  | Ast.Tenum e -> Venum (e, 0)
  | Ast.Tstring -> Vstring (String.make string_bound '\000')
  | Ast.Tstruct sname -> (
      match Ast.find_struct program sname with
      | None -> invalid_arg (Printf.sprintf "Value.default: unknown struct %s" sname)
      | Some s ->
          Vstruct
            (sname, List.map (fun (t, f) -> (f, default ~string_bound program t)) s.fields))
  | Ast.Tarray (t, n) ->
      Varray (Array.init n (fun _ -> default ~string_bound program t))

let cstring = function
  | Vstring raw -> (
      match String.index_opt raw '\000' with
      | Some i -> String.sub raw 0 i
      | None -> raw)
  | _ -> invalid_arg "Value.cstring: not a string"

let of_cstring ?(bound = 0) s =
  let size = max bound (String.length s + 1) in
  let buf = Bytes.make size '\000' in
  Bytes.blit_string s 0 buf 0 (String.length s);
  Vstring (Bytes.to_string buf)

let rec pp ppf = function
  | Vunit -> Format.fprintf ppf "()"
  | Vbool b -> Format.fprintf ppf "%b" b
  | Vchar c -> Format.fprintf ppf "%C" c
  | Vint n -> Format.fprintf ppf "%d" n
  | Venum (e, i) -> Format.fprintf ppf "%s#%d" e i
  | Vstring _ as v -> Format.fprintf ppf "%S" (cstring v)
  | Vstruct (n, fs) ->
      Format.fprintf ppf "%s{%a}" n
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.fprintf ppf "; ")
           (fun ppf (f, v) -> Format.fprintf ppf "%s=%a" f pp v))
        fs
  | Varray vs ->
      Format.fprintf ppf "[|%a|]"
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.fprintf ppf "; ")
           pp)
        (Array.to_list vs)

let to_string v = Format.asprintf "%a" pp v
