(** From BGP model tests to differential observations.

    Each implementation (FRR, GoBGP, Batfish) is the reference engine
    under its own quirk set. Tests are replayed on the §4.2 three-node
    setup: routes injected at R1 (the ExaBGP stand-in) into R2, which
    runs the configuration derived from the test and propagates to R3;
    the observation renders the session outcome and both routing
    tables. *)

val impls : (string * Eywa_bgp.Quirks.t list) list
(** ExaBGP (no quirks), then each implementation with its quirks. *)

val prepare :
  model_id:string ->
  Eywa_core.Testcase.t ->
  (Eywa_bgp.Quirks.t Eywa_quirkset.Quirkset.t -> Eywa_difftest.Difftest.fields)
  option
(** The function that replays a test's scenario under a given quirk
    set and renders it; [None] for bad-input or crash-path tests and
    tests the model has no scenario for. *)

val observations_for :
  model_id:string -> Eywa_core.Testcase.t -> Eywa_difftest.Difftest.observation list option

val run :
  ?jobs:int ->
  ?sink:Eywa_core.Instrument.sink ->
  model_id:string ->
  Eywa_core.Testcase.t list ->
  Eywa_difftest.Difftest.report
(** Per-test observations fan out over a [jobs]-domain pool and merge
    in input order; the report is identical at any [jobs]. [sink]
    receives the merge-point events, labelled with [model_id]. *)

val quirks_triggered :
  ?jobs:int ->
  (string * Eywa_core.Testcase.t list) list ->
  (string * Eywa_bgp.Quirks.t) list
(** {!Eywa_difftest.Difftest.attribute} over the models' tests in
    order. Every implementation is a suspect on a disagreeing test,
    since a bug FRR, GoBGP and Batfish share outvotes ExaBGP; a quirk
    the implementation's run consulted is confirmed when removing it
    changes the test's rendered session and routing tables. *)
