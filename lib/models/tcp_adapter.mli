(** Stateful adapter for the TCP extension — identical machinery to
    {!Smtp_adapter}, proving the §4.2 state-graph approach generalises
    as the paper's §6 anticipates. *)

val state_graph_for :
  Eywa_core.Pipeline.t -> (Eywa_stategraph.Stategraph.t, string) result

val prepare :
  graph:Eywa_stategraph.Stategraph.t ->
  Eywa_core.Testcase.t ->
  (Eywa_difftest.Difftest.observation list
  * (Eywa_tcp.Machine.quirk list -> string list option))
  option
(** A test's observations, and the function that replays the whole
    connection to the test's state and its input under a given quirk set
    ([None] when the graph cannot reach the state); [None] for
    bad-input or crash-path tests and tests without an input. *)

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
(** {!Eywa_difftest.Difftest.run} over {!observations_for}: identical
    at any [jobs]; [sink] receives the merge-point events, labelled
    ["TCP"]. *)

val quirks_triggered :
  ?jobs:int ->
  graph:Eywa_stategraph.Stategraph.t ->
  Eywa_core.Testcase.t list ->
  (string * Eywa_tcp.Machine.quirk) list
(** {!Eywa_difftest.Difftest.attribute} with every stack as a suspect
    (as {!Bgp_adapter.quirks_triggered}); a quirk is confirmed when
    removing it changes the replies of the whole connection that
    drives the stack to the test's state and sends its segment. *)
