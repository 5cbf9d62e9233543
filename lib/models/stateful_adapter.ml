module Difftest = Eywa_difftest.Difftest
module Testcase = Eywa_core.Testcase
module Stategraph = Eywa_stategraph.Stategraph
module Value = Eywa_minic.Value

type 'q machine = {
  start : string;
  states : string list;
  input_field : string;
  run : 'q list -> string list -> string list;
  impls : (string * 'q list) list;
  label : string;
  suspects : Difftest.disagreement list -> string list;
}

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

let drive m graph ~state ~input =
  match Stategraph.path_to graph ~start:m.start ~goal:state with
  | None ->
      let unreachable =
        Error (Printf.sprintf "state %s unreachable in the extracted graph" state)
      in
      fun _ -> unreachable
  | Some prefix ->
      let letters = prefix @ [ input ] in
      fun quirks -> Ok (m.run quirks letters)

let test_state m (t : Testcase.t) =
  match List.assoc_opt "state" t.inputs with
  | Some (Value.Venum (_, i)) ->
      Option.value (List.nth_opt m.states i) ~default:m.start
  | Some _ | None -> m.start

let test_input m (t : Testcase.t) =
  match List.assoc_opt m.input_field t.inputs with
  | Some v -> Value.cstring v
  | None -> ""

(* The probed reply is the session's last. *)
let probe = function
  | Ok replies -> [ ("reply", List.hd (List.rev replies)); ("drive", "ok") ]
  | Error m -> [ ("reply", ""); ("drive", m) ]

(* Attribution compares the whole session's replies, not only the
   probed one. *)
let prepare m ~graph (test : Testcase.t) =
  if test.bad_input || test.error <> None then None
  else
    let input = test_input m test in
    if input = "" then None
    else
      let serve = drive m graph ~state:(test_state m test) ~input in
      Some
        ( List.map
            (fun (impl, quirks) -> { Difftest.impl; fields = probe (serve quirks) })
            m.impls,
          fun quirks -> Result.to_option (serve quirks) )

let observations_for m ~graph test = Option.map fst (prepare m ~graph test)

let run m ?jobs ?sink ~graph tests =
  Difftest.run ?jobs ?sink ~label:m.label ~observe:(observations_for m ~graph)
    tests

let attribute m ?jobs suites =
  Difftest.attribute ?jobs ~suspects:m.suspects
    ~quirks:(fun name -> Option.value (List.assoc_opt name m.impls) ~default:[])
    ~prepare:(fun (graph, test) -> prepare m ~graph test)
    (List.concat_map
       (fun (graph, tests) -> List.map (fun t -> (graph, t)) tests)
       suites)
