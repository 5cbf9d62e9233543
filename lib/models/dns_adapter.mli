(** From DNS model tests to differential observations (§4.2).

    Each test's inputs are post-processed into a valid zone (§2.3's
    suffixing plus apex SOA/NS; lookup-oriented models additionally get
    a child delegation with sibling glue so referral behaviour is
    exercised) and a query, which are then served by every
    implementation of Table 1. The response fields compared are the
    ones the paper lists: answer, authority, additional sections, the
    aa flag, the return code, and whether the server crashed. *)

val fields_of_outcome : Eywa_dns.Message.outcome -> Eywa_difftest.Difftest.fields

val artifacts_for :
  model_id:string ->
  Eywa_core.Testcase.t ->
  (Eywa_dns.Zone.t * Eywa_dns.Message.query) option
(** The zone and query a test turns into; [None] for bad-input or
    crash-path tests, which are not replayed against servers. *)

val impls : Eywa_dns.Impls.version -> (string * Eywa_dns.Lookup.quirk list) list
(** The implementations of Table 1 with their quirks at a version. *)

val prepare :
  model_id:string ->
  Eywa_core.Testcase.t ->
  (Eywa_dns.Lookup.quirk Eywa_quirkset.Quirkset.t -> Eywa_dns.Message.outcome)
  option
(** The function that serves a test's query under a given quirk set —
    the one serving path difftest and attribution share; [None] as for
    {!artifacts_for}. *)

val run :
  ?jobs:int ->
  ?sink:Eywa_core.Instrument.sink ->
  ?on_test:(Eywa_core.Testcase.t -> Eywa_difftest.Difftest.disagreement list -> unit) ->
  model_id:string ->
  version:Eywa_dns.Impls.version ->
  Eywa_core.Testcase.t list ->
  Eywa_difftest.Difftest.report
(** Per-test observations are computed on a [jobs]-domain pool
    (default {!Eywa_core.Pool.default_jobs}) and merged in input
    order, so the report is identical at any [jobs]. [sink] receives
    the [Pool_merged]/[Difftest_done] events {!Eywa_difftest.Difftest.run}
    emits at the merge point, labelled with [model_id]; [on_test] is
    passed to it unchanged. *)

val quirks_triggered :
  ?jobs:int ->
  version:Eywa_dns.Impls.version ->
  (string * Eywa_core.Testcase.t list) list ->
  (string * Eywa_dns.Lookup.quirk) list
(** Root-cause attribution by {!Eywa_difftest.Difftest.attribute} over
    the models' tests in order: for every disagreeing (implementation,
    test), re-serve the query with each of the implementation's quirks
    removed in turn — only quirks the implementation's run consulted,
    since removing any other replays the same run; a quirk whose
    removal changes the response is the root cause. Only the
    dissenters of the majority vote are suspects. Returns the distinct
    (implementation, quirk) pairs confirmed by at least one test, in
    first-occurrence order — the "bugs found" of Table 3. *)
