(** From stateful-protocol model tests to differential observations —
    one adapter for SMTP, TCP and any other machine.

    A stateful model's test is a (state, input) pair, and an
    implementation must be driven to the state first (§4.2). The driver
    BFS-searches the state graph — extracted from the generated server
    code by the second LLM call — for an input sequence, prepends it,
    runs the session on a fresh server, and observes the reply to the
    probed input. {!Smtp_adapter} and {!Tcp_adapter} only describe
    their {!machine}. *)

type 'q machine = {
  start : string;  (** the state a fresh server starts in *)
  states : string list;
      (** the model's [state] enum members, in declaration order *)
  input_field : string;  (** the model's input argument *)
  run : 'q Eywa_quirkset.Quirkset.t -> string list -> string list;
      (** a fresh server's replies, one per input letter, under a quirk
          set *)
  impls : (string * 'q list) list;
      (** the implementations under test with their quirks *)
  label : string;  (** the difftest label of the merge-point events *)
  suspects : Eywa_difftest.Difftest.disagreement list -> string list;
      (** the implementations attribution tries on a disagreeing test *)
}

val state_graph_for :
  Eywa_core.Pipeline.t -> (Eywa_stategraph.Stategraph.t, string) result
(** Ask the (simulated) LLM for the state graph of the first compiled
    model's generated code (Fig. 8), then parse its dict response. *)

val drive :
  'q machine ->
  Eywa_stategraph.Stategraph.t ->
  state:string ->
  input:string ->
  'q Eywa_quirkset.Quirkset.t ->
  (string list, string) result
(** [drive m graph ~state ~input] BFS-searches [graph] once for a path
    from [m.start] to [state]; applied to a quirk set, it runs a fresh
    session along that path followed by [input] and returns every
    reply (the probed reply is the last). [Error _] when the graph
    cannot reach the state. *)

val render : (string list, string) result -> Eywa_difftest.Difftest.fields
(** An observation: the probed (last) reply and whether the drive
    succeeded. *)

val prepare :
  'q machine ->
  graph:Eywa_stategraph.Stategraph.t ->
  Eywa_core.Testcase.t ->
  ('q Eywa_quirkset.Quirkset.t -> (string list, string) result) option
(** The function that replays the whole session to the test's state
    and its input under a given quirk set ({!drive}); [None] for
    bad-input or crash-path tests and tests without an input. *)

val observations_for :
  'q machine ->
  graph:Eywa_stategraph.Stategraph.t ->
  Eywa_core.Testcase.t ->
  Eywa_difftest.Difftest.observation list option
(** {!Eywa_difftest.Difftest.observe} of a test: each implementation's
    {!render}ed session, in [m.impls] order. *)

val run :
  'q machine ->
  ?jobs:int ->
  ?sink:Eywa_core.Instrument.sink ->
  graph:Eywa_stategraph.Stategraph.t ->
  Eywa_core.Testcase.t list ->
  Eywa_difftest.Difftest.report
(** {!Eywa_difftest.Difftest.run} over {!prepare}: identical
    at any [jobs]; [sink] receives the merge-point events, labelled
    [m.label]. *)

val attribute :
  'q machine ->
  ?jobs:int ->
  (Eywa_stategraph.Stategraph.t * Eywa_core.Testcase.t list) list ->
  (string * 'q) list
(** {!Eywa_difftest.Difftest.attribute} over the models' tests in
    order, each driven through its model's state graph, with
    [m.suspects] as suspects; a quirk the implementation's run consulted
    is confirmed when removing it changes the replies of the whole
    session that drives the server to the test's state and sends its
    input, not only the probed reply. *)
