module Tcp = Eywa_tcp
module Stateful = Stateful_adapter

let impls =
  List.map (fun impl -> (impl.Tcp.Impls.name, Tcp.Impls.quirks impl)) Tcp.Impls.all

(* Every stack is a suspect: with three stacks a three-way split is a
   tie, which the majority breaks by value, not by blame. *)
let machine =
  {
    Stateful.start = "LISTEN";
    states = Tcp_models.states;
    input_field = "segment";
    run =
      (fun quirks letters ->
        Tcp.Machine.run_connection ~quirks
          (List.map Tcp.Machine.segment_of_letter letters));
    impls;
    label = "TCP";
    suspects = (fun _ -> List.map fst impls);
  }

let state_graph_for = Stateful.state_graph_for
let prepare ~graph = Stateful.prepare machine ~graph
let observations_for ~graph = Stateful.observations_for machine ~graph
let run ?jobs ?sink ~graph tests = Stateful.run machine ?jobs ?sink ~graph tests

let quirks_triggered ?jobs ~graph tests =
  Stateful.attribute machine ?jobs [ (graph, tests) ]
