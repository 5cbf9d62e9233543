type event =
  | Draw_started of { index : int }
  | Draw_finished of {
      index : int;
      tests : int;
      gen_seconds : float;
      symex_seconds : float;
    }
  | Compile_rejected of { index : int; stage : string; message : string }
  | Symex_done of { index : int; stats : Eywa_symex.Exec.stats }
  | Cache_hit of { stage : string; key : string }
  | Cache_miss of { stage : string; key : string }
  | Suite_aggregated of { draws : int; unique_tests : int }
  | Fuzz_done of {
      index : int;
      execs : int;
      edges_seed : int;
      edges_after : int;
      new_tests : int;
    }
  | Fuzz_aggregated of { draws : int; fuzz_tests : int; combined_tests : int }
  | Difftest_done of {
      label : string;
      total_tests : int;
      disagreeing_tests : int;
      tuples : int;
      execs : int;
    }
  | Pool_merged of {
      label : string;
      tasks : int;
      computed : int;
      jobs : int;
      per_worker : int list;
      queue_wait_ticks : int;
    }

type sink = event -> unit

let null : sink = fun _ -> ()
let tee a b : sink = fun e -> a e; b e

module Collector = struct
  type t = { mutex : Mutex.t; mutable events : event list (* newest first *) }

  type summary = {
    draws : int;
    rejected : int;
    tests : int;
    gen_seconds : float;
    symex_seconds : float;
    symex_ticks : int;
    paths_completed : int;
    paths_pruned : int;
    paths_unknown : int;
    solver_calls : int;
    solver_decisions : int;
    model_reuses : int;
    timeouts : int;
    cache_hits : int;
    cache_misses : int;
    unique_tests : int;
    fuzz_draws : int;
    fuzz_execs : int;
    fuzz_new_tests : int;
    fuzz_edges_gained : int;
    difftests : int;
    difftest_execs : int;
    disagreeing_tests : int;
    pool_batches : int;
    pool_tasks : int;
  }

  let create () = { mutex = Mutex.create (); events = [] }

  let sink t : sink =
    fun e ->
      Mutex.lock t.mutex;
      t.events <- e :: t.events;
      Mutex.unlock t.mutex

  let events t =
    Mutex.lock t.mutex;
    let es = List.rev t.events in
    Mutex.unlock t.mutex;
    es

  let clear t =
    Mutex.lock t.mutex;
    t.events <- [];
    Mutex.unlock t.mutex

  let empty_summary =
    {
      draws = 0; rejected = 0; tests = 0; gen_seconds = 0.0;
      symex_seconds = 0.0; symex_ticks = 0; paths_completed = 0;
      paths_pruned = 0; paths_unknown = 0; solver_calls = 0;
      solver_decisions = 0; model_reuses = 0; timeouts = 0; cache_hits = 0;
      cache_misses = 0; unique_tests = 0; fuzz_draws = 0; fuzz_execs = 0;
      fuzz_new_tests = 0; fuzz_edges_gained = 0; difftests = 0;
      difftest_execs = 0; disagreeing_tests = 0; pool_batches = 0;
      pool_tasks = 0;
    }

  let summary t =
    List.fold_left
      (fun s -> function
        | Draw_started _ -> s
        | Draw_finished { tests; gen_seconds; symex_seconds; _ } ->
            { s with draws = s.draws + 1; tests = s.tests + tests;
              gen_seconds = s.gen_seconds +. gen_seconds;
              symex_seconds = s.symex_seconds +. symex_seconds }
        | Compile_rejected _ -> { s with rejected = s.rejected + 1 }
        | Symex_done { stats = st; _ } ->
            { s with symex_ticks = s.symex_ticks + st.ticks_used;
              paths_completed = s.paths_completed + st.paths_completed;
              paths_pruned = s.paths_pruned + st.paths_pruned;
              paths_unknown = s.paths_unknown + st.paths_unknown;
              solver_calls = s.solver_calls + st.solver_calls;
              solver_decisions = s.solver_decisions + st.solver_decisions;
              model_reuses = s.model_reuses + st.model_reuses;
              timeouts = (s.timeouts + if st.timed_out then 1 else 0) }
        | Cache_hit _ -> { s with cache_hits = s.cache_hits + 1 }
        | Cache_miss _ -> { s with cache_misses = s.cache_misses + 1 }
        | Suite_aggregated { unique_tests; _ } ->
            { s with unique_tests = s.unique_tests + unique_tests }
        | Fuzz_done { execs; new_tests; edges_seed; edges_after; _ } ->
            { s with fuzz_draws = s.fuzz_draws + 1;
              fuzz_execs = s.fuzz_execs + execs;
              fuzz_new_tests = s.fuzz_new_tests + new_tests;
              fuzz_edges_gained =
                s.fuzz_edges_gained + max 0 (edges_after - edges_seed) }
        | Fuzz_aggregated _ -> s
        | Difftest_done { total_tests = _; disagreeing_tests; execs; _ } ->
            { s with difftests = s.difftests + 1;
              difftest_execs = s.difftest_execs + execs;
              disagreeing_tests = s.disagreeing_tests + disagreeing_tests }
        | Pool_merged { tasks; _ } ->
            { s with pool_batches = s.pool_batches + 1;
              pool_tasks = s.pool_tasks + tasks })
      empty_summary (events t)

  let pp_summary ppf (s : summary) =
    Format.fprintf ppf
      "draws        %d finished, %d rejected, %d raw tests@\n\
       generation   %.2f s wall@\n\
       symex        %.2f s wall, %d ticks (deterministic), %d paths (+%d \
       pruned, +%d unknown), %d solver calls, %d timeouts@\n\
       solver       %d decisions executed, %d model reuses@\n\
       cache        %d hits, %d misses@\n\
       aggregation  %d unique tests@\n\
       fuzz         %d draws, %d execs (deterministic ticks), %d new tests, \
       +%d edges@\n\
       difftest     %d runs, %d executions, %d disagreeing tests@\n\
       pool         %d batches, %d tasks"
      s.draws s.rejected s.tests s.gen_seconds s.symex_seconds s.symex_ticks
      s.paths_completed s.paths_pruned s.paths_unknown s.solver_calls
      s.timeouts s.solver_decisions s.model_reuses s.cache_hits
      s.cache_misses s.unique_tests s.fuzz_draws s.fuzz_execs s.fuzz_new_tests
      s.fuzz_edges_gained s.difftests s.difftest_execs s.disagreeing_tests
      s.pool_batches s.pool_tasks
end
