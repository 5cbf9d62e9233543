module Smtp = Eywa_smtp
module Stateful = Stateful_adapter

let machine =
  {
    Stateful.start = "INITIAL";
    states = Smtp_models.states;
    input_field = "input";
    run =
      (fun quirks letters ->
        Smtp.Machine.run_session ~quirks
          (List.map Smtp.Machine.command_of_letter letters));
    impls =
      List.map
        (fun impl -> (impl.Smtp.Impls.name, Smtp.Impls.quirks impl))
        Smtp.Impls.all;
    label = "SERVER";
    suspects = Eywa_difftest.Difftest.dissenters;
  }

let state_graph_for = Stateful.state_graph_for
let prepare ~graph = Stateful.prepare machine ~graph
let observations_for ~graph = Stateful.observations_for machine ~graph
let run ?jobs ?sink ~graph tests = Stateful.run machine ?jobs ?sink ~graph tests

let quirks_triggered ?jobs ~graph tests =
  Stateful.attribute machine ?jobs [ (graph, tests) ]
