(** The coverage-guided mutational fuzz stage.

    A second test generator beside symbolic execution: each compiled
    model draw seeds a corpus from its own symex tests, then mutates
    corpus entries under a deterministic execution budget, keeping a
    candidate iff it covers a branch edge nothing before it covered
    (AFL's "new coverage" rule on the interpreter's edge map).

    Determinism contract — the same invariants as {!Eywa_core.Pipeline}:
    a fuzz draw is a pure function of (program, its symex tests, config,
    index). Randomness comes only from {!Rng} seeded at
    [fuzz_seed + index]; the budget is a count of candidates (a
    deterministic tick budget, never wall clock); coverage maps are
    used for membership and counting only, so hash order is invisible.
    Fixed (seed, budget) gives byte-identical corpus and tests at any
    [jobs] value and on warm or cold cache. *)

module Pipeline = Eywa_core.Pipeline
module Cache = Eywa_core.Cache
module Instrument = Eywa_core.Instrument
module Testcase = Eywa_core.Testcase

type config = {
  fuzz_seed : int;  (** base seed; draw [i] fuzzes at [fuzz_seed + i] *)
  budget : int;  (** candidates per draw (deterministic ticks) *)
  max_new_tests : int;  (** stop a draw early after this many keepers *)
  fuel : int;  (** interpreter fuel per candidate execution *)
}

val default_config : config
(** seed 42, 500 executions, 64 keepers, fuel 100k. Every run picks
    from all of {!Mutate.all}. *)

type draw_fuzz = {
  f_index : int;  (** the model-draw index this fuzz run extends *)
  execs : int;
      (** candidates charged to the budget, not necessarily run. A
          candidate equal to an input the draw already ran counts here
          but is answered by the memo, not executed: it could add no
          edge (see {!fuzz_draw}). A symbolically complete draw charges
          the candidates of a loop that keeps nothing and runs none of
          them (see {!fuzz_of_seeds}). *)
  edges_seed : int;  (** edges covered by the symex seed suite alone *)
  edges_after : int;  (** edges covered after fuzzing *)
  edges_static : int;  (** the program's whole static edge universe *)
  new_tests : Testcase.t list;  (** coverage-increasing keepers, in order *)
}

type t = {
  per_draw : draw_fuzz list;  (** one per compiled draw, in index order *)
  fuzz_tests : Testcase.t list;
      (** all keepers, deduped, minus any test already in the symex
          suite *)
  combined_tests : Testcase.t list;
      (** the symex unique suite followed by [fuzz_tests] — feed this
          to [Difftest.run] unchanged *)
}

(** {1 Cache key and artifact} *)

val fuzz_key :
  oracle_name:string ->
  pipeline:Pipeline.config ->
  config:config ->
  prompts:(string * string) list ->
  index:int ->
  Cache.Key.t
(** Extends {!Pipeline.draw_key_parts} — which already covers every
    input the underlying draw (and hence the seed suite) depends on —
    with the fuzz stage's own inputs: effective fuzz seed
    ([fuzz_seed + index]), execution budget, keeper cap, mutator set
    ({!Mutate.all}, so a change to it misses older artifacts),
    interpreter fuel, and the fuzz engine version. Like the draw key
    it excludes [k], wall time, machine, and pool size. *)

val artifact_to_string : draw_fuzz -> string
(** The {!Eywa_core.Serialize.Artifact} codec under the header
    [eywa-fuzz 1]. No wall-clock fields: a decoded artifact is
    structurally equal to the run that stored it. *)

val artifact_of_string : string -> (draw_fuzz, string) result
(** Inverse of {!artifact_to_string}; [Error] (never an exception) on
    truncated or malformed payloads. *)

(** {1 Stage functions} *)

val fuzz_draw :
  natives:(string * (Eywa_minic.Value.t list -> Eywa_minic.Value.t)) list ->
  main:Eywa_core.Emodule.func ->
  config:config ->
  alphabet:char list ->
  index:int ->
  Eywa_minic.Ast.program ->
  Testcase.t list ->
  draw_fuzz
(** One draw's full fuzz loop: replay the seeds, then mutate. This is
    the per-draw reference {!fuzz_of_seeds} must agree with, which
    replays the seeds once per program and skips the mutation of a
    complete draw. It stops at the execution budget, at [max_new_tests]
    keepers, or once every static edge is covered (nothing more can
    be kept), whichever comes first. [alphabet] is the model's
    character domain (the same one symbolic strings range over).

    The draw runs its program through one {!Coverage.runner} and keeps
    an exact memo ({!Memo}) of the inputs it has run. A candidate
    already in the memo spends its budget tick and its rng draws but is
    not executed: a run's coverage depends on its input alone, and the
    edges of every input run before are already covered, so it could
    not be kept. The artifact is the one executing it would give. The
    seeds enter the memo only when there are no more of them than the
    budget.

    A draw without seed tests (its symex run timed out before the
    first) has nothing to mutate: it spends 0 executions and keeps
    nothing. *)

val fuzz_of_seeds :
  ?cache:Cache.t ->
  ?sink:Instrument.sink ->
  ?config:config ->
  ?jobs:int ->
  oracle_name:string ->
  pipeline:Pipeline.config ->
  Eywa_core.Graph.t ->
  Pipeline.t ->
  (t, string) result
(** The staged engine: pair each compiled draw of the synthesis result
    with its program, probe the cache in index order (an entry that
    does not decode is a miss, as in {!Pipeline.run}), group the misses
    by program ([s.program_ids]), fan the groups out over
    {!Eywa_core.Pool}, store, merge by index, replay [Fuzz_done] events
    at the merge point and emit [Fuzz_aggregated]. [pipeline] must be
    the config the synthesis ran with (it is part of the cache key, and
    decides {!Pipeline.complete}). [Pool_merged {label = "fuzz"}]
    counts the compiled draws in [tasks] and the programs seeded in
    [computed].

    Draws of one program share its seeds and its exploration, so each
    group replays its seeds once, as {!fuzz_draw} does: [edges_seed] is
    measured, never assumed. Each incomplete draw of the group then
    runs its own mutation loop, at its own rng seed, on a private copy
    of the seeded corpus and coverage map; its artifact is the one
    {!fuzz_draw} gives it. A draw whose symbolic exploration is
    complete ({!Pipeline.complete}) stops after the seeds: every
    input inside the model's bounds takes the branches of one explored
    path, whose seed already covered them, so no mutant could be kept.
    Its artifact is the one {!fuzz_draw} returns when it keeps
    nothing: [edges_after = edges_seed], no new tests, and [execs] the
    whole budget if the loop would start (a positive budget and keeper
    cap, a seed, and an uncovered static edge), else 0. Mutants can
    leave the bounds (an [Arith] nudge takes an int past 0..4095, a
    byte mutation overwrites a string's terminator); that they gain
    nothing there either is checked on every complete k=3 draw of the
    roster, not proved. Any other draw runs the full loop. *)
