(** The TCP extension model's {!Stateful_adapter.machine} — the same
    machinery as {!Smtp_adapter}, showing the §4.2 state-graph approach
    generalises as the paper's §6 anticipates: a fresh connection
    starts in LISTEN, tests probe their ["segment"], and refstack,
    fastopend and quietstack are the stacks. *)

val machine : Eywa_tcp.Machine.quirk Stateful_adapter.machine
(** Labelled ["TCP"]; every stack is an attribution suspect (as in
    {!Bgp_adapter.quirks_triggered}). *)

val state_graph_for :
  Eywa_core.Pipeline.t -> (Eywa_stategraph.Stategraph.t, string) result

val prepare :
  graph:Eywa_stategraph.Stategraph.t ->
  Eywa_core.Testcase.t ->
  (Eywa_difftest.Difftest.observation list
  * (Eywa_tcp.Machine.quirk list -> string list option))
  option

val observations_for :
  graph:Eywa_stategraph.Stategraph.t ->
  Eywa_core.Testcase.t ->
  Eywa_difftest.Difftest.observation list option

val run :
  ?jobs:int ->
  ?sink:Eywa_core.Instrument.sink ->
  graph:Eywa_stategraph.Stategraph.t ->
  Eywa_core.Testcase.t list ->
  Eywa_difftest.Difftest.report

val quirks_triggered :
  ?jobs:int ->
  graph:Eywa_stategraph.Stategraph.t ->
  Eywa_core.Testcase.t list ->
  (string * Eywa_tcp.Machine.quirk) list
