module Instrument = Eywa_core.Instrument

(* The standard instrument set, registered in a fixed order at [create]
   so the exposition text is deterministic. Buckets are fixed at
   creation (never derived from observed data), so merged histograms
   are jobs-invariant: observations happen at the deterministic merge
   point in input-index order. *)
type instruments = {
  draws : Metrics.counter;
  rejected : Metrics.counter;
  raw_tests : Metrics.counter;
  symex_ticks : Metrics.counter;
  paths_completed : Metrics.counter;
  paths_pruned : Metrics.counter;
  paths_unknown : Metrics.counter;
  solver_calls : Metrics.counter;
  solver_decisions : Metrics.counter;
  model_reuses : Metrics.counter;
  timeouts : Metrics.counter;
  unique_tests : Metrics.counter;
  fuzz_draws : Metrics.counter;
  fuzz_execs : Metrics.counter;
  fuzz_new_tests : Metrics.counter;
  fuzz_edges_gained : Metrics.counter;
  difftest_runs : Metrics.counter;
  difftest_execs : Metrics.counter;
  difftest_disagreements : Metrics.counter;
  pool_batches : Metrics.counter;
  pool_tasks : Metrics.counter;
  h_draw_tests : Metrics.histogram;
  h_symex_ticks : Metrics.histogram;
  h_fuzz_edges_gained : Metrics.histogram;
  h_difftest_execs : Metrics.histogram;
  (* environment: wall clock, cache state, pool scheduling *)
  gen_seconds : Metrics.gauge;
  symex_seconds : Metrics.gauge;
  cache_hits : Metrics.counter;
  cache_misses : Metrics.counter;
  pool_computed : Metrics.counter;
  pool_queue_wait : Metrics.counter;
  pool_jobs : Metrics.gauge;
  pool_worker_tasks : Metrics.vec;
}

type t = {
  mutex : Mutex.t;
  builder : Trace.builder;
  registry : Metrics.t;
  inst : instruments;
  mutable gen_seconds_total : float;
  mutable symex_seconds_total : float;
}

let make_instruments reg =
  let c ?cls ?help name = Metrics.counter reg ?cls ?help name in
  let h ?cls ?help ~buckets name = Metrics.histogram reg ?cls ?help ~buckets name in
  {
    draws = c "eywa_draws_total" ~help:"finished model draws";
    rejected = c "eywa_draws_rejected_total" ~help:"compile-rejected draws";
    raw_tests = c "eywa_tests_total" ~help:"tests before suite dedup";
    symex_ticks = c "eywa_symex_ticks_total" ~help:"deterministic symex ticks";
    paths_completed = c "eywa_symex_paths_completed_total";
    paths_pruned = c "eywa_symex_paths_pruned_total";
    paths_unknown =
      c "eywa_symex_paths_unknown_total" ~help:"solves that hit the decision budget";
    solver_calls = c "eywa_symex_solver_calls_total";
    solver_decisions =
      c "eywa_symex_solver_decisions_total" ~help:"search decisions executed";
    model_reuses = c "eywa_symex_model_reuses_total" ~help:"probes answered by the parent model";
    timeouts = c "eywa_symex_timeouts_total" ~help:"draws that hit the tick budget";
    unique_tests = c "eywa_unique_tests_total" ~help:"tests after suite dedup";
    fuzz_draws = c "eywa_fuzz_draws_total";
    fuzz_execs = c "eywa_fuzz_execs_total" ~help:"candidate executions (deterministic)";
    fuzz_new_tests = c "eywa_fuzz_new_tests_total";
    fuzz_edges_gained = c "eywa_fuzz_edges_gained_total" ~help:"edges beyond the symex seeds";
    difftest_runs = c "eywa_difftest_runs_total";
    difftest_execs = c "eywa_difftest_execs_total" ~help:"implementation executions";
    difftest_disagreements = c "eywa_difftest_disagreeing_tests_total";
    pool_batches = c "eywa_pool_batches_total" ~help:"pool map batches merged";
    pool_tasks = c "eywa_pool_tasks_total" ~help:"logical units across batches";
    h_draw_tests =
      h "eywa_draw_tests" ~help:"tests per draw"
        ~buckets:[ 0.; 1.; 2.; 5.; 10.; 20.; 50.; 100.; 200. ];
    h_symex_ticks =
      h "eywa_symex_ticks" ~help:"ticks per draw"
        ~buckets:[ 100.; 1_000.; 10_000.; 100_000.; 1_000_000.; 10_000_000. ];
    h_fuzz_edges_gained =
      h "eywa_fuzz_edges_gained" ~help:"edge gain per fuzz round"
        ~buckets:[ 0.; 1.; 2.; 5.; 10.; 20.; 50. ];
    h_difftest_execs =
      h "eywa_difftest_execs" ~help:"implementation executions per suite"
        ~buckets:[ 10.; 100.; 1_000.; 10_000.; 100_000. ];
    gen_seconds = Metrics.gauge reg ~cls:Env "eywa_gen_seconds" ~help:"wall clock";
    symex_seconds = Metrics.gauge reg ~cls:Env "eywa_symex_seconds" ~help:"wall clock";
    cache_hits = c ~cls:Env "eywa_cache_hits_total";
    cache_misses = c ~cls:Env "eywa_cache_misses_total";
    pool_computed = c ~cls:Env "eywa_pool_computed_total" ~help:"units executed (cache misses)";
    pool_queue_wait = c ~cls:Env "eywa_pool_queue_wait_ticks_total";
    pool_jobs = Metrics.gauge reg ~cls:Env "eywa_pool_jobs" ~help:"last batch's pool size";
    pool_worker_tasks =
      Metrics.counter_vec reg ~cls:Env ~label:"worker" "eywa_pool_worker_tasks_total";
  }

let create ?metrics ~label () =
  let registry = match metrics with Some r -> r | None -> Metrics.create () in
  {
    mutex = Mutex.create ();
    builder = Trace.builder ~label;
    registry;
    inst = make_instruments registry;
    gen_seconds_total = 0.0;
    symex_seconds_total = 0.0;
  }

let feed_metrics t (ev : Instrument.event) =
  let i = t.inst in
  match ev with
  | Draw_started _ -> ()
  | Draw_finished { tests; gen_seconds; symex_seconds; _ } ->
      Metrics.inc i.draws 1;
      Metrics.inc i.raw_tests tests;
      Metrics.observe i.h_draw_tests (float_of_int tests);
      t.gen_seconds_total <- t.gen_seconds_total +. gen_seconds;
      t.symex_seconds_total <- t.symex_seconds_total +. symex_seconds;
      Metrics.set_gauge i.gen_seconds t.gen_seconds_total;
      Metrics.set_gauge i.symex_seconds t.symex_seconds_total
  | Compile_rejected _ -> Metrics.inc i.rejected 1
  | Symex_done { stats = st; _ } ->
      Metrics.inc i.symex_ticks st.ticks_used;
      Metrics.observe i.h_symex_ticks (float_of_int st.ticks_used);
      Metrics.inc i.paths_completed st.paths_completed;
      Metrics.inc i.paths_pruned st.paths_pruned;
      Metrics.inc i.paths_unknown st.paths_unknown;
      Metrics.inc i.solver_calls st.solver_calls;
      Metrics.inc i.solver_decisions st.solver_decisions;
      Metrics.inc i.model_reuses st.model_reuses;
      if st.timed_out then Metrics.inc i.timeouts 1
  | Cache_hit _ -> Metrics.inc i.cache_hits 1
  | Cache_miss _ -> Metrics.inc i.cache_misses 1
  | Suite_aggregated { unique_tests; _ } ->
      Metrics.inc i.unique_tests unique_tests
  | Fuzz_done { execs; edges_seed; edges_after; new_tests; _ } ->
      Metrics.inc i.fuzz_draws 1;
      Metrics.inc i.fuzz_execs execs;
      Metrics.inc i.fuzz_new_tests new_tests;
      let gained = max 0 (edges_after - edges_seed) in
      Metrics.inc i.fuzz_edges_gained gained;
      Metrics.observe i.h_fuzz_edges_gained (float_of_int gained)
  | Fuzz_aggregated _ -> ()
  | Difftest_done { disagreeing_tests; execs; _ } ->
      Metrics.inc i.difftest_runs 1;
      Metrics.inc i.difftest_execs execs;
      Metrics.inc i.difftest_disagreements disagreeing_tests;
      Metrics.observe i.h_difftest_execs (float_of_int execs)
  | Pool_merged { tasks; computed; jobs; per_worker; queue_wait_ticks; _ } ->
      Metrics.inc i.pool_batches 1;
      Metrics.inc i.pool_tasks tasks;
      Metrics.inc i.pool_computed computed;
      Metrics.inc i.pool_queue_wait queue_wait_ticks;
      Metrics.set_gauge i.pool_jobs (float_of_int jobs);
      List.iteri
        (fun w n -> Metrics.inc_vec i.pool_worker_tasks (string_of_int w) n)
        per_worker

let sink t : Instrument.sink =
  fun ev ->
    Mutex.lock t.mutex;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock t.mutex)
      (fun () ->
        Trace.feed t.builder ev;
        feed_metrics t ev)

let metrics t = t.registry

let finish t =
  Mutex.lock t.mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.mutex)
    (fun () -> Trace.finish t.builder)
