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

(* Attribution compares the whole session's replies, not only the
   probed one. *)
let prepare ~graph (test : Testcase.t) =
  if test.bad_input || test.error <> None then None
  else begin
    let state = Tcp_models.test_state test in
    let input = Tcp_models.test_segment test in
    if input = "" then None
    else
      let serve quirks =
        Option.map
          (fun prefix ->
            Tcp.Machine.run_connection ~quirks
              (List.map Tcp.Machine.segment_of_letter (prefix @ [ input ])))
          (Stategraph.path_to graph ~start:"LISTEN" ~goal:state)
      in
      Some
        ( List.map
            (fun impl ->
              { Difftest.impl = impl.Tcp.Impls.name;
                fields = probe impl graph state input })
            Tcp.Impls.all,
          serve )
  end

let observations_for ~graph test = Option.map fst (prepare ~graph test)

let run ?jobs ?sink ~graph tests =
  Difftest.run ?jobs ?sink ~label:"TCP" ~observe:(observations_for ~graph)
    tests

(* Every stack is a suspect: with three stacks a three-way split is a
   tie, which the majority breaks by value, not by blame. *)
let quirks_triggered ?jobs ~graph tests =
  Difftest.attribute ?jobs
    ~suspects:(fun _ ->
      List.map (fun impl -> impl.Tcp.Impls.name) Tcp.Impls.all)
    ~quirks:(fun name ->
      match Tcp.Impls.find name with
      | Some impl -> Tcp.Impls.quirks impl
      | None -> [])
    ~prepare:(prepare ~graph) tests
