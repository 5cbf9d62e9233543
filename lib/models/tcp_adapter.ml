module Tcp = Eywa_tcp
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
  | Some r -> (
      let response = Eywa_llm.Gpt.complete_stategraph r.c_source in
      match Eywa_llm.Extract.parse_pydict response with
      | Error m -> Error m
      | Ok transitions -> Ok (Stategraph.of_list transitions))

let probe impl graph state input =
  match Tcp.Impls.drive_and_probe impl graph ~state ~input with
  | Ok reply -> [ ("reply", reply); ("drive", "ok") ]
  | Error m -> [ ("reply", ""); ("drive", m) ]

let observations_for ~graph (test : Testcase.t) =
  if test.bad_input || test.error <> None then None
  else begin
    let state = Tcp_models.test_state test in
    let input = Tcp_models.test_segment test in
    if input = "" then None
    else
      Some
        (List.map
           (fun impl ->
             { Difftest.impl = impl.Tcp.Impls.name;
               fields = probe impl graph state input })
           Tcp.Impls.all)
  end

let run ~graph tests =
  let acc = Difftest.create () in
  List.iter
    (fun test ->
      match observations_for ~graph test with
      | None -> ()
      | Some obs -> ignore (Difftest.record acc obs))
    tests;
  Difftest.report acc

let quirks_triggered ~graph tests =
  let found = ref [] in
  let note impl quirk =
    if not (List.mem (impl, quirk) !found) then found := !found @ [ (impl, quirk) ]
  in
  List.iter
    (fun (test : Testcase.t) ->
      match observations_for ~graph test with
      | None -> ()
      | Some obs ->
          if Difftest.compare_all obs <> [] then
            List.iter
              (fun impl ->
                let state = Tcp_models.test_state test in
                let input = Tcp_models.test_segment test in
                let active = Tcp.Impls.quirks impl in
                let reply_with quirks =
                  match Stategraph.path_to graph ~start:"LISTEN" ~goal:state with
                  | None -> None
                  | Some prefix ->
                      Some
                        (Tcp.Machine.run_connection ~quirks
                           (List.map Tcp.Machine.segment_of_letter
                              (prefix @ [ input ])))
                in
                let with_all = reply_with active in
                List.iter
                  (fun q ->
                    if reply_with (List.filter (fun x -> x <> q) active) <> with_all
                    then note impl.Tcp.Impls.name q)
                  active)
              Tcp.Impls.all)
    tests;
  !found
