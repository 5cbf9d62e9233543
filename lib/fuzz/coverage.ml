module Ast = Eywa_minic.Ast
module Value = Eywa_minic.Value
module Interp = Eywa_minic.Interp
module Testcase = Eywa_core.Testcase
module Harness = Eywa_core.Harness
module Emodule = Eywa_core.Emodule
module Etype = Eywa_core.Etype

let execute ?fuel ~natives ~main ~coverage program inputs =
  let args =
    List.map
      (fun (a : Etype.Arg.t) ->
        match List.assoc_opt a.name inputs with
        | Some v -> v
        | None -> Etype.default_value a.ty)
      (Emodule.inputs main)
  in
  match
    Interp.run ?fuel ~natives ~coverage program Harness.entry_name args
  with
  | Error e ->
      { Testcase.inputs; result = None; bad_input = false;
        error = Some (Interp.error_to_string e) }
  | Ok (Value.Vstruct (_, fields)) ->
      let bad_input =
        match List.assoc_opt "bad_input" fields with
        | Some (Value.Vbool b) -> b
        | _ -> false
      in
      let result = List.assoc_opt "result" fields in
      { Testcase.inputs; result; bad_input; error = None }
  | Ok v ->
      { Testcase.inputs; result = Some v; bad_input = false; error = None }

let news = Interp.coverage_news
let absorb = Interp.coverage_absorb
let count = Interp.coverage_count

let of_suite ~graph ~main programs tests =
  let natives = Harness.natives_concrete graph main in
  List.fold_left
    (fun (hit, total) program ->
      let cov = Interp.coverage_create () in
      List.iter
        (fun (t : Testcase.t) ->
          ignore
            (execute ~natives ~main ~coverage:cov program t.Testcase.inputs))
        tests;
      (hit + count cov, total + List.length (Interp.static_edges program)))
    (0, 0) programs
