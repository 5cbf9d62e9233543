(** The SMTP SERVER model's {!Stateful_adapter.machine}: a fresh server
    starts in INITIAL, tests probe their ["input"] command, and
    aiosmtpd, smtpd and OpenSMTPD are the implementations. *)

val machine : Eywa_smtp.Machine.quirk Stateful_adapter.machine
(** Labelled ["SERVER"]; attribution suspects the dissenters of the
    majority vote. *)

val state_graph_for :
  Eywa_core.Pipeline.t -> (Eywa_stategraph.Stategraph.t, string) result
(** {!Stateful_adapter.state_graph_for}. *)

val prepare :
  graph:Eywa_stategraph.Stategraph.t ->
  Eywa_core.Testcase.t ->
  (Eywa_difftest.Difftest.observation list
  * (Eywa_smtp.Machine.quirk list -> string list option))
  option
(** {!Stateful_adapter.prepare} on {!machine}. *)

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
(** {!Stateful_adapter.run} on {!machine}. *)

val quirks_triggered :
  ?jobs:int ->
  graph:Eywa_stategraph.Stategraph.t ->
  Eywa_core.Testcase.t list ->
  (string * Eywa_smtp.Machine.quirk) list
(** {!Stateful_adapter.attribute} on {!machine}, over one model's tests. *)
