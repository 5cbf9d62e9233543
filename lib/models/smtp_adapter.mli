(** From SMTP model tests to differential observations.

    SMTP is stateful: every test is a (state, input) pair, and the
    implementation must be driven to the state first (§4.2). The driver
    BFS-searches the state graph — extracted from the generated server
    code by the second LLM call — for an input sequence, prepends it,
    runs the session on a fresh server, and observes the reply to the
    probed input. *)

val state_graph_for :
  Eywa_core.Pipeline.t -> (Eywa_stategraph.Stategraph.t, string) result
(** Ask the (simulated) LLM for the state graph of the first compiled
    model's generated code (Fig. 8), then parse its dict response. *)

val prepare :
  graph:Eywa_stategraph.Stategraph.t ->
  Eywa_core.Testcase.t ->
  (Eywa_difftest.Difftest.observation list
  * (Eywa_smtp.Machine.quirk list -> string list option))
  option
(** A test's observations, and the function that replays the whole
    session to the test's state and its input under a given quirk set
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
(** Per-test observations fan out over a [jobs]-domain pool and merge
    in input order; the report is identical at any [jobs]. [sink]
    receives the merge-point events, labelled ["SERVER"]. *)

val quirks_triggered :
  ?jobs:int ->
  graph:Eywa_stategraph.Stategraph.t ->
  Eywa_core.Testcase.t list ->
  (string * Eywa_smtp.Machine.quirk) list
(** {!Eywa_difftest.Difftest.attribute} with the dissenting servers as
    suspects; a quirk is confirmed when removing it changes the replies
    of the whole session that drives the server to the test's state and
    sends its input, not only the probed reply. *)
