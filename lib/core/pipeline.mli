(** The staged pipeline engine: end-to-end model synthesis and test
    generation (§3.1, §4.1).

    For each of [k] model indices, Eywa prompts the oracle once per
    module (callees first), parses and typechecks the completions —
    skipping the model on any compilation error, as the paper does —
    assembles the harness, runs symbolic execution, and converts every
    completed path into a test case. Results are aggregated into the
    union of unique tests, with the min/max generated-code LoC that
    Table 2 reports. Each stage is a pure function between explicit
    artifacts:

    {v
    prompt_parts   : graph/main        -> canonical prompt texts
    generate       : oracle/index      -> generated   (per-draw source)
    compile        : generated         -> Ast.program (or tagged rejection)
    symex          : program           -> paths + stats (+ samples)
    tests_of_paths : paths             -> Testcase.t list
    front          : index             -> unexplored draw + program (1-2)
    explore        : program           -> tests + stats (3-4, fresh vids)
    run_draw       : index             -> model_result (front, then explore)
    aggregate      : model_result list -> t            (the unique suite)
    v}

    {!run} composes {!front} and {!explore} exactly as {!run_draw}
    does, but pays for each distinct draft and each distinct program
    once: sampled drafts repeat, and parsing, compiling and exploring
    are pure functions of the draft or the program. It adds three
    cross-cutting services:

    - {b Parallelism}: the oracle draws, the distinct drafts' builds,
      then the distinct programs' explorations fan out over {!Pool}
      and merge by index, so results are bit-for-bit independent of
      [jobs]. Explorations on one domain share its intern scope for
      the whole run, and with it the symbolic executor's refutation
      table ({!Eywa_symex.Exec}): a slice one draft refuted is not
      searched again by a later draft on that worker. No solver state
      outlives the run.
    - {b Caching}: each draw result is content-addressed in a
      {!Cache} under a key covering {e everything} the draw depends
      on — oracle name, exact prompt texts, pipe structure, effective
      seed, temperature, every budget, alphabet, sampling count — and
      {e nothing} machine- or time-dependent. A cache hit is
      byte-identical to a miss (wall-clock fields are stored in the
      artifact, so even they replay). Because a draw's key excludes
      [k], a k=12 run reuses every artifact a k=3 run stored: the
      bench's k-sweep stops recomputing shared prefixes.
    - {b Instrumentation}: stage events are replayed to the
      {!Instrument.sink} at the merge point in index order (workers
      stay pure), so the event log is deterministic too. *)

type config = {
  k : int;  (** number of model implementations to draw (paper: 10) *)
  temperature : float;  (** tau (paper: 0.6) *)
  timeout : float;
      (** per-model symbolic execution budget in "budget seconds" — a
          deterministic tick budget (see {!Eywa_symex.Exec.config}),
          so a cut-off model's tests don't depend on machine speed *)
  max_paths : int;
  max_steps : int;
  max_solver_decisions : int;
  alphabet : char list;  (** character domain for string/char atoms *)
  base_seed : int;
  samples_per_path : int;
      (** concrete tests drawn per symbolic path (distinct solver value
          rotations); Klee-style dense coverage of bounded inputs *)
}

val default_config : config
(** k = 10, temperature = 0.6, timeout = 5 s, alphabet [a b . *],
    4 samples per path. *)

type model_result = {
  index : int;
  c_source : string;  (** the generated module implementations *)
  c_loc : int;
  compile_error : string option;
      (** set when this model was skipped; prefixed with the failing
          stage (["oracle: "] for completions that do not parse or do
          not define the requested function, ["typecheck: "] for
          assembled programs the checker rejects) so parallel failure
          logs are attributable *)
  tests : Testcase.t list;
  stats : Eywa_symex.Exec.stats option;
  gen_seconds : float;
  symex_seconds : float;
}

type t = {
  main : Emodule.func;
  results : model_result list;
  unique_tests : Testcase.t list;
  unique_keys : string list;
      (** each unique test's {!Testcase.key}, in [unique_tests] order *)
  loc_min : int;  (** over models that compiled; 0 if none *)
  loc_max : int;
  programs : Eywa_minic.Ast.program list;  (** one per compiled model *)
  program_ids : int list;
      (** one per compiled model, parallel to [programs]: equal ids for
          structurally equal programs, numbered from 0 in order of first
          occurrence. Draws of one program carry equal tests and stats,
          so a later stage (the fuzz seed phase) can do a program's work
          once. *)
}

(** {1 Stage functions} *)

type generated = {
  gen_index : int;
  source : string;  (** concatenated module sources, the draw artifact *)
  funcs : Eywa_minic.Ast.func list;
      (** the selected function per Func module, plus Custom functions *)
}

val prompt_parts :
  Graph.t -> order:Emodule.t list -> main:Emodule.func -> (string * string) list
(** Stage-0 artifact: one canonical (name, text) pair per dependency a
    draw sees — the full system+user prompt per [Func] module, the
    source per [Custom], the pattern per [Regex], and the pipe-guard
    structure feeding each module. These are exactly the prompt-side
    inputs of a cache key. *)

val generate :
  oracle:Oracle.t ->
  config:config ->
  Graph.t ->
  order:Emodule.t list ->
  index:int ->
  (generated, string) result
(** One LLM draw: module by module (callees first), prompt the oracle
    for a Func module at seed [config.base_seed + index] and parse its
    completion. The first module that does not parse is the [Error],
    and no later module is prompted. [Error] messages carry no stage
    tag; {!run_draw} adds ["oracle: "]. *)

val compile :
  Graph.t ->
  main:Emodule.func ->
  generated ->
  (Eywa_minic.Ast.program, string) result
(** Assemble the harness program and typecheck it. Untagged [Error];
    {!run_draw} adds ["typecheck: "]. *)

val symex :
  config:config ->
  Graph.t ->
  main:Emodule.func ->
  Eywa_minic.Ast.program ->
  (string * Eywa_symex.Sv.t) list
  * Eywa_symex.Exec.path list
  * Eywa_symex.Exec.stats
(** Explore the compiled program on symbolic inputs; returns the named
    inputs alongside the completed paths and stats. Each path carries
    its [samples_per_path - 1] sample models ({!Eywa_symex.Exec.path}),
    solved when the executor completed it. Runs in the caller's term-id
    and intern scope, so its refutation table too. *)

val tests_of_paths :
  config:config ->
  inputs:(string * Eywa_symex.Sv.t) list ->
  Eywa_symex.Exec.path list ->
  Testcase.t list
(** Concretize each path into [samples_per_path] tests — its model,
    then each of its samples, at value rotations [0, 1, ...] — and
    dedup. Solves nothing: the executor found the samples. The paths
    must come from {!symex} under a config with at least as many
    [samples_per_path] (else [Invalid_argument]). *)

val front :
  oracle:Oracle.t ->
  config:config ->
  Graph.t ->
  main:Emodule.func ->
  order:Emodule.t list ->
  int ->
  model_result * Eywa_minic.Ast.program option
(** Stages 1-2 for one index: {!generate} then {!compile}, with the
    rejection stage-tagged and [gen_seconds] measured (the oracle
    draws plus parsing their completions). The result has
    no tests, no stats and [symex_seconds = 0.0]; the program is
    [None] iff [compile_error] is set. Allocates no term ids, so it
    needs no term-id scope of its own. *)

val explore :
  config:config ->
  Graph.t ->
  main:Emodule.func ->
  Eywa_minic.Ast.program ->
  Testcase.t list * Eywa_symex.Exec.stats * float
(** Stages 3-4 for one compiled program, with fresh variable ids
    ({!Eywa_solver.Term.with_fresh_vids}) in the caller's intern scope:
    {!symex} then {!tests_of_paths}. Returns the tests, the symex stats
    and the measured symex wall seconds. Everything but the wall time
    is a pure function of (config, graph, main, program), so
    structurally equal programs explore identically on any worker —
    whatever the scope's refutation table already holds, which only
    saves searches. *)

val run_draw :
  oracle:Oracle.t ->
  config:config ->
  Graph.t ->
  main:Emodule.func ->
  order:Emodule.t list ->
  int ->
  model_result * Eywa_minic.Ast.program option
(** {!front} then {!explore} for one index — the per-index reference
    {!run} must agree with (bar the wall-clock fields of duplicate
    draws). *)

val complete : config -> model_result -> bool
(** Whether the draw's symbolic exploration reached every feasible
    path of its program within the bounds the exploration models: the
    draw compiled and has stats, did not time out, lost no path to an
    [Unknown] solve, stopped short of [config.max_paths], and cut no
    path at [max_steps] (no test carries
    {!Eywa_symex.Exec.step_budget_error}). [config] must be the one the
    draw explored under. The stats are checked first; the tests are
    scanned only for a draw that passes them.

    An input within those bounds satisfies the path condition of
    exactly one explored path, so its run takes the branches of that
    path's seed: mutating the seeds of a complete draw can reach no
    edge they miss. Mutants outside the bounds (an int past 0..4095, a
    string whose terminator a byte mutation overwrote) are not covered
    by this argument; the fuzz stage relies on it for them too (see
    {!Eywa_fuzz.Fuzz.fuzz_of_seeds}). *)

val aggregate :
  main:Emodule.func ->
  (model_result * Eywa_minic.Ast.program option) list ->
  t
(** Union the per-draw tests into the unique suite with min/max LoC,
    and number the distinct programs ([program_ids]). Draws of one
    program must carry equal tests, as draws explored under one config
    do: only a program's first draw is keyed for the dedup, since its
    repeats could add no key. *)

(** {1 Cache keys and artifacts} *)

val draw_key_parts :
  oracle_name:string ->
  config:config ->
  prompts:(string * string) list ->
  index:int ->
  (string * string) list
(** The (name, value) pairs {!draw_key} hashes, exposed so stages
    layered on a draw (e.g. [Eywa_fuzz]) can extend the exact same
    inputs with their own parameters instead of re-deriving them. *)

val draw_key :
  oracle_name:string ->
  config:config ->
  prompts:(string * string) list ->
  index:int ->
  Cache.Key.t
(** The content address of one draw: oracle name, prompt parts,
    effective seed ([base_seed + index]), temperature, all budgets,
    alphabet, and samples per path. Deliberately excludes [k] (a
    draw's result does not depend on how many siblings it has), wall
    time, machine, and pool size. *)

val artifact_to_string : model_result * Eywa_minic.Ast.program option -> string
(** Serialize a draw result in the {!Serialize.Artifact} codec under
    the header [eywa-draw 3] — tests via {!Serialize.test_to_line},
    strings via {!Serialize.quote}, floats as hex literals (exact),
    the compiled program pretty-printed. *)

val artifact_of_string :
  Graph.t ->
  main:Emodule.func ->
  string ->
  (model_result * Eywa_minic.Ast.program option, string) result
(** Exact inverse given the same graph and main module:
    [artifact_of_string g ~main (artifact_to_string a) = Ok a]. The
    compiled program is reconstructed by re-parsing the stored source
    and re-running {!Harness.build} — the identical pure construction
    the cold path used — rather than trusting the stored text to
    round-trip doc comments the parser drops. *)

(** {1 The composed engine} *)

val run :
  ?cache:Cache.t ->
  ?sink:Instrument.sink ->
  ?config:config ->
  ?jobs:int ->
  oracle:Oracle.t ->
  Graph.t ->
  main:Emodule.t ->
  (t, string) result
(** [Error _] only for structural problems (cyclic call edges, main
    not a Func module); per-draw failures are recorded in [results].

    [jobs] is the number of pool domains the [k] independent draws fan
    out over (default {!Pool.default_jobs}, i.e. [EYWA_JOBS] or the
    core count). Results are merged by model index, so the returned
    {!t} is bit-for-bit independent of [jobs] — provided the oracle is
    a pure function of its request, which the simulated LLM is.

    Each cache miss draws from the oracle module by module, as
    {!generate} does; each distinct completion text of a module is
    parsed once, and a draw stops at its first text that does not
    parse, so the oracle gets exactly the calls {!generate} makes.
    Each distinct draft (the draw's module texts) is then line-counted
    and compiled once, and {!explore} runs once per distinct compiled
    program among the misses, keyed on the {!Eywa_minic.Ast.program}
    itself (a digest buckets, structural equality decides — never the
    source text). Each parse, build and exploration goes to every draw
    that produced its text, draft or program. Per-draw results,
    [Symex_done] stats and cache artifacts are therefore exactly those
    of {!run_draw}, except for the wall clock: a draw's [gen_seconds]
    is its own oracle time plus the parse time of the texts it was the
    first to draw, and only the first miss of a program keeps the symex
    time this process measured (a repeat reports
    [symex_seconds = 0.0]). [Pool_merged {label = "draw"}]
    counts the distinct programs explored in [computed], and the
    probes the workers' refutation tables answered in
    [refutations_reused]. The program ids the aggregation hands on
    cover cached draws too.

    Each pool worker explores in one intern scope for the whole run
    (the calling domain, which explores when the pool runs inline, in
    a {!Eywa_solver.Term.with_fresh_ids} scope that ends with the
    run), so the refutation table a worker fills serves every later
    draft it explores, and is dropped with the run.

    With a [cache], draw results are looked up ({!Cache.lookup} with
    {!artifact_of_string}) before computing and stored after; hits
    decode to byte-identical results (and emit [Cache_hit] instead of
    [Cache_miss], the only event difference). An entry that does not
    decode is a miss: the draw is computed and its entry overwritten.
    With a [sink], every stage reports: cache probes in index order,
    then per-draw events replayed in index order at the merge point,
    then the aggregation event. *)
