module Ast = Eywa_minic.Ast
module Value = Eywa_minic.Value
module Interp = Eywa_minic.Interp
module Testcase = Eywa_core.Testcase
module Harness = Eywa_core.Harness
module Emodule = Eywa_core.Emodule
module Etype = Eywa_core.Etype

type runner = coverage:Interp.coverage -> (string * Value.t) list -> Testcase.t

let rec field name = function
  | [] -> None
  | (n, v) :: rest -> if String.equal n name then Some v else field name rest

(* The harness arguments in declared order: each declared input's first
   binding in [inputs], or its type's default. *)
let arguments main =
  let decl =
    List.map
      (fun (a : Etype.Arg.t) -> (a.name, Etype.default_value a.ty))
      (Emodule.inputs main)
  in
  fun inputs ->
    List.map
      (fun (name, default) ->
        match field name inputs with Some v -> v | None -> default)
      decl

let runner ?fuel ~natives ~main program =
  let entry = Interp.prepare ~natives program Harness.entry_name in
  let arguments = arguments main in
  fun ~coverage inputs ->
    match Interp.exec ?fuel ~coverage entry (arguments inputs) with
    | Error e ->
        { Testcase.inputs; result = None; bad_input = false;
          error = Some (Interp.error_to_string e) }
    | Ok (Value.Vstruct (_, fields)) ->
        let bad_input =
          match field "bad_input" fields with
          | Some (Value.Vbool b) -> b
          | _ -> false
        in
        let result = field "result" fields in
        { Testcase.inputs; result; bad_input; error = None }
    | Ok v ->
        { Testcase.inputs; result = Some v; bad_input = false; error = None }

let execute ?fuel ~natives ~main ~coverage program inputs =
  runner ?fuel ~natives ~main program ~coverage inputs

let news = Interp.coverage_news
let absorb = Interp.coverage_absorb
let count = Interp.coverage_count

let of_suite ~graph ~main programs tests =
  let natives = Harness.natives_concrete graph main in
  List.fold_left
    (fun (hit, total) program ->
      let run = runner ~natives ~main program in
      let cov = Interp.coverage_create () in
      List.iter
        (fun (t : Testcase.t) -> ignore (run ~coverage:cov t.Testcase.inputs))
        tests;
      (hit + count cov, total + List.length (Interp.static_edges program)))
    (0, 0) programs
