(** Stateful adapter for the TCP extension — identical machinery to
    {!Smtp_adapter}, proving the §4.2 state-graph approach generalises
    as the paper's §6 anticipates. *)

val state_graph_for :
  Eywa_core.Pipeline.t -> (Eywa_stategraph.Stategraph.t, string) result

val observations_for :
  graph:Eywa_stategraph.Stategraph.t ->
  Eywa_core.Testcase.t ->
  Eywa_difftest.Difftest.observation list option

val run :
  graph:Eywa_stategraph.Stategraph.t ->
  Eywa_core.Testcase.t list ->
  Eywa_difftest.Difftest.report

val quirks_triggered :
  graph:Eywa_stategraph.Stategraph.t ->
  Eywa_core.Testcase.t list ->
  (string * Eywa_tcp.Machine.quirk) list
