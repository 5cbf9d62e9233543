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
    symex          : program           -> paths + stats
    tests_of_paths : paths             -> Testcase.t list
    front          : index             -> unexplored draw + program (1-2)
    explore        : program           -> tests + stats (3-4, fresh ids)
    run_draw       : index             -> model_result (front, then explore)
    aggregate      : model_result list -> t            (the unique suite)
    v}

    {!run} composes {!front} and {!explore} exactly as {!run_draw}
    does, but explores each distinct compiled program of a draw set
    once: sampled drafts repeat, and an exploration is a pure function
    of the program. It adds three cross-cutting services:

    - {b Parallelism}: the fronts, then the distinct programs'
      explorations, fan out over {!Pool} and merge by index, so
      results are bit-for-bit independent of [jobs].
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
(** One LLM draw: prompt the oracle per module (callees first) at seed
    [config.base_seed + index]. [Error] messages carry no stage tag;
    {!run_draw} adds ["oracle: "]. *)

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
    inputs alongside the completed paths and stats. *)

val tests_of_paths :
  config:config ->
  inputs:(string * Eywa_symex.Sv.t) list ->
  Eywa_symex.Exec.path list ->
  Testcase.t list
(** Solve each path into [samples_per_path] concrete tests and dedup. *)

val front :
  oracle:Oracle.t ->
  config:config ->
  Graph.t ->
  main:Emodule.func ->
  order:Emodule.t list ->
  int ->
  model_result * Eywa_minic.Ast.program option
(** Stages 1-2 for one index: {!generate} then {!compile}, with the
    rejection stage-tagged and [gen_seconds] measured. The result has
    no tests, no stats and [symex_seconds = 0.0]; the program is
    [None] iff [compile_error] is set. Allocates no term ids, so it
    needs no term-id scope of its own. *)

val explore :
  config:config ->
  Graph.t ->
  main:Emodule.func ->
  Eywa_minic.Ast.program ->
  Testcase.t list * Eywa_symex.Exec.stats * float
(** Stages 3-4 for one compiled program, under a fresh term-id scope:
    {!symex} then {!tests_of_paths}. Returns the tests, the symex stats
    and the measured symex wall seconds. Everything but the wall time
    is a pure function of (config, graph, main, program), so
    structurally equal programs explore identically on any worker. *)

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

val aggregate :
  main:Emodule.func ->
  (model_result * Eywa_minic.Ast.program option) list ->
  t
(** Union the per-draw tests into the unique suite with min/max LoC. *)

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
(** Serialize a draw result — tests via {!Serialize.test_to_line},
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

    The cache misses first run {!front}; then {!explore} runs once per
    distinct compiled program among them, keyed on the
    {!Eywa_minic.Ast.program} itself (a digest buckets, structural
    equality decides — never the source text), and each exploration
    goes to every draw that produced its program. Per-draw results,
    [Symex_done] stats and cache artifacts are therefore exactly those
    of {!run_draw}, except that a duplicate draw reports
    [symex_seconds = 0.0]: only the first draw of a program keeps the
    time this process measured. [Pool_merged {label = "draw"}] counts
    the distinct programs explored in [computed].

    With a [cache], draw results are looked up before computing and
    stored after; hits decode to byte-identical results (and emit
    [Cache_hit] instead of [Cache_miss], the only event difference).
    With a [sink], every stage reports: cache probes in index order,
    then per-draw events replayed in index order at the merge point,
    then the aggregation event. *)
