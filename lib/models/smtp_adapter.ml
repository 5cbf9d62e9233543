module Smtp = Eywa_smtp
module Difftest = Eywa_difftest.Difftest
module Testcase = Eywa_core.Testcase
module Stategraph = Eywa_stategraph.Stategraph

let state_graph_for (synth : Eywa_core.Pipeline.t) =
  match
    List.find_opt
      (fun (r : Eywa_core.Pipeline.model_result) -> r.compile_error = None)
      synth.results
  with
  | None -> Error "no compiled model to extract a state graph from"
  | Some r ->
      let response = Eywa_llm.Gpt.complete_stategraph r.c_source in
      (match Eywa_llm.Extract.parse_pydict response with
      | Error m -> Error m
      | Ok transitions -> Ok (Stategraph.of_list transitions))

let probe impl graph state input =
  match Smtp.Impls.drive_and_probe impl graph ~state ~input with
  | Ok reply -> [ ("reply", reply); ("drive", "ok") ]
  | Error m -> [ ("reply", ""); ("drive", m) ]

let observations_for ~graph (test : Testcase.t) =
  if test.bad_input || test.error <> None then None
  else begin
    let state = Smtp_models.test_state test in
    let input = Smtp_models.test_input test in
    if input = "" then None
    else
      Some
        (List.map
           (fun impl ->
             { Difftest.impl = impl.Smtp.Impls.name;
               fields = probe impl graph state input })
           Smtp.Impls.all)
  end

let run ?jobs ?sink ~graph tests =
  Difftest.run ?jobs ?sink ~label:"SERVER" ~observe:(observations_for ~graph)
    tests

(* Quirk attribution for one test (pure, pool-safe). *)
let quirks_for_test ~graph (test : Testcase.t) =
  match observations_for ~graph test with
  | None -> []
  | Some obs ->
      let disagreements = Difftest.compare_all obs in
      List.concat_map
        (fun (d : Difftest.disagreement) ->
          match Smtp.Impls.find d.d_impl with
          | None -> []
          | Some impl ->
              let state = Smtp_models.test_state test in
              let input = Smtp_models.test_input test in
              let active = Smtp.Impls.quirks impl in
              let reply_with quirks =
                match Stategraph.path_to graph ~start:"INITIAL" ~goal:state with
                | None -> None
                | Some prefix ->
                    let commands =
                      List.map Smtp.Machine.command_of_letter (prefix @ [ input ])
                    in
                    Some (Smtp.Machine.run_session ~quirks commands)
              in
              let with_all = reply_with active in
              List.filter_map
                (fun q ->
                  let without = reply_with (List.filter (fun x -> x <> q) active) in
                  if without <> with_all then Some (impl.Smtp.Impls.name, q)
                  else None)
                active)
        disagreements

let quirks_triggered ?jobs ~graph tests =
  let found = ref [] in
  let note pair = if not (List.mem pair !found) then found := !found @ [ pair ] in
  List.iter (List.iter note)
    (Difftest.parallel_map ?jobs (quirks_for_test ~graph) tests);
  !found
