module Ast = Eywa_minic.Ast
module Value = Eywa_minic.Value
module Sv = Eywa_symex.Sv
module Regex = Eywa_symex.Regex
module Term = Eywa_solver.Term

let entry_name = "__eywa_harness"
let out_struct = "EywaOut"

let regex_guards g (main : Emodule.func) =
  List.filter_map
    (fun src ->
      match src with
      | Emodule.Regex r -> Some r
      | Emodule.Func _ | Emodule.Custom _ -> None)
    (Graph.pipes_into g (Emodule.Func main))

let func_guards g (main : Emodule.func) =
  List.filter_map
    (fun src ->
      match src with
      | Emodule.Func f -> Some f
      | Emodule.Regex _ | Emodule.Custom _ -> None)
    (Graph.pipes_into g (Emodule.Func main))

(* Types used anywhere in this model: main, its guards, and every
   call-edge dependency of either. *)
let model_types g (main : Emodule.func) =
  let of_func (m : Emodule.func) = List.map (fun (a : Etype.Arg.t) -> a.ty) m.args in
  let guard_types = List.concat_map of_func (func_guards g main) in
  Prompt.involved_types g main
  @ guard_types
  @ List.concat_map (fun f -> Prompt.involved_types g f) (func_guards g main)

let build g ~main ~funcs =
  let enums, structs = Etype.declarations (model_types g main) in
  let ret_ty = Etype.to_minic (Emodule.result main).ty in
  let out_def =
    { Ast.sname = out_struct; fields = [ (Ast.Tbool, "bad_input"); (ret_ty, "result") ] }
  in
  let regex_protos =
    List.map
      (fun (r : Emodule.regex) ->
        { Ast.pname = r.rname; pret = Ast.Tbool; pparams = [ (Ast.Tstring, "s") ];
          pdoc = [ Printf.sprintf "matches %s" r.pattern ] })
      (regex_guards g main)
  in
  let inputs = Emodule.inputs main in
  let params = List.map (fun (a : Etype.Arg.t) -> (Etype.to_minic a.ty, a.name)) inputs in
  let guard_expr_of = function
    | `Regex (r : Emodule.regex) -> Ast.Ecall (r.rname, [ Ast.Evar r.target.name ])
    | `Func (f : Emodule.func) ->
        let args =
          List.map (fun (a : Etype.Arg.t) -> Ast.Evar a.name) (Emodule.inputs f)
        in
        Ast.Ecall (f.name, args)
  in
  let guards =
    List.filter_map
      (fun src ->
        match src with
        | Emodule.Regex r -> Some (`Regex r)
        | Emodule.Func f -> Some (`Func f)
        | Emodule.Custom _ -> None)
      (Graph.pipes_into g (Emodule.Func main))
  in
  let valid_updates =
    List.map
      (fun guard ->
        Ast.Sassign
          ( Ast.Lvar "valid",
            Ast.Ebinop (Ast.Land, Ast.Evar "valid", guard_expr_of guard) ))
      guards
  in
  let main_call =
    Ast.Ecall (main.name, List.map (fun (a : Etype.Arg.t) -> Ast.Evar a.name) inputs)
  in
  let store_result =
    match ret_ty with
    | Ast.Tstring ->
        Ast.Sexpr
          (Ast.Ecall ("strcpy", [ Ast.Efield (Ast.Evar "out", "result"); main_call ]))
    | _ -> Ast.Sassign (Ast.Lfield (Ast.Lvar "out", "result"), main_call)
  in
  let body =
    [
      Ast.Sdecl (Ast.Tstruct out_struct, "out", None);
      Ast.Sdecl (Ast.Tbool, "valid", Some (Ast.Ebool true));
    ]
    @ valid_updates
    @ [
        Ast.Sif
          ( Ast.Evar "valid",
            [
              Ast.Sassign (Ast.Lfield (Ast.Lvar "out", "bad_input"), Ast.Ebool false);
              store_result;
            ],
            [ Ast.Sassign (Ast.Lfield (Ast.Lvar "out", "bad_input"), Ast.Ebool true) ] );
        Ast.Sreturn (Some (Ast.Evar "out"));
      ]
  in
  let harness =
    { Ast.fname = entry_name; ret = Ast.Tstruct out_struct; params; body;
      doc = [ "Eywa symbolic test harness (generated)" ] }
  in
  {
    Ast.enums;
    structs = structs @ [ out_def ];
    protos = regex_protos;
    funcs = funcs @ [ harness ];
  }

(* ----- symbolic inputs ----- *)

let alphabet_domain alphabet =
  let codes = List.sort_uniq compare (0 :: List.map Char.code alphabet) in
  Array.of_list codes

let int_domain bits =
  let width = min bits 12 in
  Array.init (1 lsl width) (fun i -> i)

let rec sym_of_ty ~alphabet ~name ty =
  match Etype.strip_alias ty with
  | Etype.Bool -> Sv.fresh_scalar ~name Ast.Tbool ~domain:[| 0; 1 |]
  | Etype.Char -> Sv.fresh_scalar ~name Ast.Tchar ~domain:(alphabet_domain alphabet)
  | Etype.Int bits -> Sv.fresh_scalar ~name (Ast.Tint bits) ~domain:(int_domain bits)
  | Etype.String n -> Sv.symbolic_string ~name ~alphabet:(alphabet_domain alphabet) n
  | Etype.Enum (ename, members) ->
      Sv.fresh_scalar ~name (Ast.Tenum ename)
        ~domain:(Array.init (List.length members) (fun i -> i))
  | Etype.Array (t, n) ->
      Sv.Sarray
        (Array.init n (fun i ->
             sym_of_ty ~alphabet ~name:(Printf.sprintf "%s[%d]" name i) t))
  | Etype.Struct (sname, fields) ->
      Sv.Sstruct
        ( sname,
          List.map
            (fun (f, t) -> (f, sym_of_ty ~alphabet ~name:(name ^ "." ^ f) t))
            fields )
  | Etype.Alias (_, t) -> sym_of_ty ~alphabet ~name t

let symbolic_inputs ~alphabet (main : Emodule.func) =
  List.map
    (fun (a : Etype.Arg.t) -> (a.name, sym_of_ty ~alphabet ~name:a.name a.ty))
    (Emodule.inputs main)

(* ----- regex natives ----- *)

let natives_symbolic g main =
  List.map
    (fun (r : Emodule.regex) ->
      let re = Regex.parse r.pattern in
      ( r.rname,
        fun (args : Sv.t list) ->
          match args with
          | [ Sv.Sstring cells ] -> Sv.Sscalar (Ast.Tbool, Regex.compile_term re cells)
          | _ -> invalid_arg (r.rname ^ ": expected one string argument") ))
    (regex_guards g main)

let natives_concrete g main =
  List.map
    (fun (r : Emodule.regex) ->
      let matches = Regex.matcher (Regex.parse r.pattern) in
      ( r.rname,
        fun (args : Value.t list) ->
          match args with
          | [ (Value.Vstring _ as s) ] -> Value.Vbool (matches (Value.cstring s))
          | _ -> invalid_arg (r.rname ^ ": expected one string argument") ))
    (regex_guards g main)
