(** Differential testing with majority voting and root-cause triage
    (§4.2).

    Each implementation's response to a test is rendered as a set of
    named fields (for DNS: rcode, flags, answer, authority, additional,
    crash). For every field, the majority value is the expected one;
    implementations that differ produce a disagreement tuple
    [(impl, field, got, majority)]. Because many tests trigger the same
    bug, tuples are deduplicated into unique root causes, exactly as
    the paper triages its results. *)

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
(** Disagreements of a single test across implementations. *)

(** Accumulation across a whole test suite. *)

type accum

type report = {
  total_tests : int;
  disagreeing_tests : int;
  observations : int;
      (** implementation executions recorded over the suite — a
          deterministic counter (sum of observation-list lengths), the
          difftest analogue of symex ticks *)
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
  observe:('a -> observation list option) ->
  'a list ->
  report
(** [run ~observe tests] computes every test's observations and their
    disagreements ({!compare_all}) in parallel ([observe] returning
    [None] skips the test), keeping only the observation count and the
    disagreements of each test, then tallies them {e sequentially in
    input order} into one accumulator — so the report is identical at
    any [jobs], and equal to {!record}ing every observation list in
    order. [observe] must be safe to call from concurrent domains.

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
  quirks:(string -> 'q list) ->
  prepare:('a -> (observation list * ('q list -> 'r)) option) ->
  'a list ->
  (string * 'q) list
(** Root-cause attribution by quirk removal (§4.2), shared by every
    protocol adapter. [prepare t] gives a test's observations and
    [serve], which replays the test on the reference engine under a
    quirk set ([None] skips the test). On a test whose observations
    disagree ({!compare_all}), every implementation [suspects] names is
    served under all its [quirks] and again with each quirk removed in
    turn; a quirk whose removal changes the reply is confirmed for that
    implementation.

    Returns the distinct confirmed (implementation, quirk) pairs in
    first-occurrence order: by test index, then suspect order, then
    quirk order. Tests are judged on a [jobs]-domain pool in
    index-ordered chunks of {!attribute_chunk}, each skipping the pairs
    that earlier chunks confirmed, so the result is the same at any
    [jobs]. [prepare], [serve] and [quirks] must be safe to call from
    concurrent domains. *)

val impls_in_report : report -> string list
val tuples_for : report -> string -> (disagreement * int) list

val pp_report : Format.formatter -> report -> unit
