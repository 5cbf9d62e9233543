(** Differential testing with majority voting and root-cause triage
    (§4.2).

    Each implementation's response to a test is rendered as a set of
    named fields (for DNS: rcode, flags, answer, authority, additional,
    crash). For every field, the majority value is the expected one;
    implementations that differ produce a disagreement tuple
    [(impl, field, got, majority)]. Because many tests trigger the same
    bug, tuples are deduplicated into unique root causes, exactly as
    the paper triages its results.

    Every implementation is the reference engine under its own quirk
    set, and the engine gates each quirk through
    {!Eywa_quirkset.Quirkset.has}. A run that consulted the quirks L
    under quirk set Q therefore has the outcome of every quirk set that
    agrees with Q on L. A test serves the reference (no quirks) first
    and runs the engine again only for a quirk set that no earlier run
    covers this way; each run's outcome is rendered at most once, for
    every implementation that shares the run. *)

type fields = (string * string) list
(** field name -> rendered value; all observations of one test must use
    the same field names. *)

type observation = { impl : string; fields : fields }

type disagreement = {
  d_impl : string;
  d_field : string;
  d_got : string;
  d_majority : string;
}

val field_majority : (string * string) list -> string
(** Majority value among (impl, value) pairs; ties broken towards the
    lexicographically smallest value with maximal count, so results are
    deterministic. *)

val compare_all : observation list -> disagreement list
(** Disagreements of a single test across implementations: for each
    field (in the first observation's order), every observation whose
    value differs from the field's majority ({!field_majority} of the
    observations' values), in observation order. *)

val observe :
  impls:(string * 'q list) list ->
  render:('r -> fields) ->
  ('q Eywa_quirkset.Quirkset.t -> 'r) ->
  observation list
(** [observe ~impls ~render serve]: each implementation's observation
    of one test, in [impls] order — [render] of what [serve] returns
    under the implementation's quirk set — with one engine run per quirk
    set whose outcome could differ (see above). [serve] must gate every
    quirk through {!Eywa_quirkset.Quirkset.has}, and may be called with
    any quirk set. Equal to serving and rendering every implementation
    on its own. *)

(** Accumulation across a whole test suite. *)

type accum

type report = {
  total_tests : int;
  disagreeing_tests : int;
  observations : int;
      (** observations recorded over the suite (the sum of the
          observation-list lengths), not engine runs: a deterministic
          counter, the difftest analogue of symex ticks *)
  tuples : (disagreement * int) list;
      (** unique tuples with occurrence counts, most frequent first *)
}

val create : unit -> accum
val record : accum -> observation list -> disagreement list
val report : accum -> report

val run :
  ?jobs:int ->
  ?sink:Eywa_core.Instrument.sink ->
  ?label:string ->
  ?on_test:('a -> disagreement list -> unit) ->
  impls:(string * 'q list) list ->
  render:('r -> fields) ->
  prepare:('a -> ('q Eywa_quirkset.Quirkset.t -> 'r) option) ->
  'a list ->
  report
(** [run ~impls ~render ~prepare tests] computes every test's
    observations ({!observe} of the serve function [prepare] gives it;
    [None] skips the test) and their disagreements ({!compare_all}) in
    parallel, keeping only the observation count and the disagreements
    of each test, then tallies them {e sequentially in input order} into
    one accumulator — so the report is identical at any [jobs], and
    equal to {!record}ing every test's {!observe} in order.
    [prepare] and the serve functions must be safe to call from
    concurrent domains.

    After the merge, emits [Pool_merged] (labelled
    ["difftest:" ^ label]) and [Difftest_done] on [sink] from the
    orchestrating domain, following the {!Eywa_core.Instrument}
    replay-at-merge-point contract. [label] defaults to ["suite"].
    [on_test] sees every observed test with its disagreements during
    the merge, on the orchestrating domain and in input order — how a
    caller picks per-test facts (a witness per dissenter) out of the
    same pass. *)

val dissenters : disagreement list -> string list
(** The distinct implementations named by the disagreements, in
    first-occurrence order — the {!attribute} suspects of a protocol
    whose bugs majority voting can single out. *)

val attribute_chunk : int
(** How many tests {!attribute} judges per pool batch. *)

val attribute :
  ?jobs:int ->
  suspects:(disagreement list -> string list) ->
  impls:(string * 'q list) list ->
  render:('r -> fields) ->
  prepare:('a -> ('q Eywa_quirkset.Quirkset.t -> 'r) option) ->
  'a list ->
  (string * 'q) list
(** Root-cause attribution by quirk removal (§4.2), shared by every
    protocol adapter; [impls], [render] and [prepare] are as for {!run}.
    On a test whose observations disagree ({!compare_all}), every
    implementation [suspects] names is served again with each of its
    quirks removed in turn — only quirks the implementation's run
    consulted, since removing any other replays the same run. A quirk
    is removed from the implementation's own quirk set, even where its
    run was shared with another implementation's set, and a quirk whose
    removal changes the outcome is confirmed for that implementation.
    The result equals trying every quirk of every suspect by a fresh
    run.

    Returns the distinct confirmed (implementation, quirk) pairs in
    first-occurrence order: by test index, then suspect order, then
    quirk order. Tests are judged on a [jobs]-domain pool in
    index-ordered chunks of {!attribute_chunk}, each skipping the pairs
    that earlier chunks confirmed; once every pair is confirmed, no
    later test is prepared.

    A test serves lazily. It serves the reference, then the runs of the
    implementations that still have an untried pair. If none of those
    runs consulted an untried quirk, the test stops there: no other
    implementation is served, and nothing is rendered or voted on. Only
    a test with such a candidate serves the remaining implementations,
    renders every observation and votes. The result is the same at any
    [jobs]. [prepare] and the serve functions must be safe to call from
    concurrent domains. *)

val impls_in_report : report -> string list
val tuples_for : report -> string -> (disagreement * int) list

val pp_report : Format.formatter -> report -> unit
