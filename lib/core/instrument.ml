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
      refutations_reused : int;
    }

type sink = event -> unit

let null : sink = fun _ -> ()
let tee a b : sink = fun e -> a e; b e

let pool_merged ?(refutations_reused = 0) ~label ~tasks (st : Pool.map_stats) =
  Pool_merged
    { label; tasks; computed = st.tasks; jobs = st.jobs; per_worker = st.per_worker;
      queue_wait_ticks = st.queue_wait_ticks; refutations_reused }

type cls = Det | Env

module Stat = struct
  type _ kind = Int : int kind | Float : float kind

  type 'a t = {
    key : string;
    metric : string;
    help : string;
    cls : cls;
    kind : 'a kind;
    slot : int;
    of_event : event -> 'a;
  }

  type row = Row : 'a t -> row

  (* filled in declaration order while the rows below are defined *)
  let rev_rows = ref []
  let n_ints = ref 0
  let n_floats = ref 0

  let make kind count key metric ?(help = "") cls of_event =
    let st = { key; metric; help; cls; kind; slot = !count; of_event } in
    incr count;
    rev_rows := Row st :: !rev_rows;
    st

  let int = make Int n_ints
  let float = make Float n_floats
  let symex f = function Symex_done { stats; _ } -> f stats | _ -> 0

  let draws =
    int "draws" "eywa_draws_total" ~help:"finished model draws" Det (function
      | Draw_finished _ -> 1 | _ -> 0)

  let rejected =
    int "rejected" "eywa_draws_rejected_total" ~help:"compile-rejected draws"
      Det (function Compile_rejected _ -> 1 | _ -> 0)

  let tests =
    int "tests" "eywa_tests_total" ~help:"tests before suite dedup" Det
      (function Draw_finished { tests; _ } -> tests | _ -> 0)

  let gen_seconds =
    float "gen_seconds" "eywa_gen_seconds" ~help:"wall clock" Env (function
      | Draw_finished { gen_seconds; _ } -> gen_seconds | _ -> 0.0)

  let symex_seconds =
    float "symex_seconds" "eywa_symex_seconds" ~help:"wall clock" Env (function
      | Draw_finished { symex_seconds; _ } -> symex_seconds | _ -> 0.0)

  let symex_ticks =
    int "symex_ticks" "eywa_symex_ticks_total" ~help:"deterministic symex ticks"
      Det (symex (fun st -> st.ticks_used))

  let paths_completed =
    int "paths_completed" "eywa_symex_paths_completed_total" Det
      (symex (fun st -> st.paths_completed))

  let paths_pruned =
    int "paths_pruned" "eywa_symex_paths_pruned_total" Det
      (symex (fun st -> st.paths_pruned))

  let paths_unknown =
    int "paths_unknown" "eywa_symex_paths_unknown_total"
      ~help:"solves that hit the decision budget" Det
      (symex (fun st -> st.paths_unknown))

  let solver_calls =
    int "solver_calls" "eywa_symex_solver_calls_total" Det
      (symex (fun st -> st.solver_calls))

  let solver_decisions =
    int "solver_decisions" "eywa_symex_solver_decisions_total"
      ~help:"search decisions executed" Det
      (symex (fun st -> st.solver_decisions))

  let model_reuses =
    int "model_reuses" "eywa_symex_model_reuses_total"
      ~help:"probes answered by the parent model" Det
      (symex (fun st -> st.model_reuses))

  let timeouts =
    int "timeouts" "eywa_symex_timeouts_total"
      ~help:"draws that hit the tick budget" Det
      (symex (fun st -> Bool.to_int st.timed_out))

  let cache_hits =
    int "cache_hits" "eywa_cache_hits_total" Env (function
      | Cache_hit _ -> 1 | _ -> 0)

  let cache_misses =
    int "cache_misses" "eywa_cache_misses_total" Env (function
      | Cache_miss _ -> 1 | _ -> 0)

  let unique_tests =
    int "unique_tests" "eywa_unique_tests_total" ~help:"tests after suite dedup"
      Det (function Suite_aggregated { unique_tests = n; _ } -> n | _ -> 0)

  let fuzz_draws =
    int "fuzz_draws" "eywa_fuzz_draws_total" Det (function
      | Fuzz_done _ -> 1 | _ -> 0)

  let fuzz_execs =
    int "fuzz_execs" "eywa_fuzz_execs_total"
      ~help:"candidate executions (deterministic)" Det (function
      | Fuzz_done { execs; _ } -> execs | _ -> 0)

  let fuzz_new_tests =
    int "fuzz_new_tests" "eywa_fuzz_new_tests_total" Det (function
      | Fuzz_done { new_tests; _ } -> new_tests | _ -> 0)

  let fuzz_edges_gained =
    int "fuzz_edges_gained" "eywa_fuzz_edges_gained_total"
      ~help:"edges beyond the symex seeds" Det (function
      | Fuzz_done { edges_seed; edges_after; _ } ->
          max 0 (edges_after - edges_seed)
      | _ -> 0)

  let difftests =
    int "difftests" "eywa_difftest_runs_total" Det (function
      | Difftest_done _ -> 1 | _ -> 0)

  let difftest_execs =
    int "difftest_execs" "eywa_difftest_execs_total"
      ~help:"implementation executions" Det (function
      | Difftest_done { execs; _ } -> execs | _ -> 0)

  let disagreeing_tests =
    int "disagreeing_tests" "eywa_difftest_disagreeing_tests_total" Det
      (function Difftest_done { disagreeing_tests = n; _ } -> n | _ -> 0)

  let pool_batches =
    int "pool_batches" "eywa_pool_batches_total"
      ~help:"pool map batches merged" Det (function
      | Pool_merged _ -> 1 | _ -> 0)

  let pool_tasks =
    int "pool_tasks" "eywa_pool_tasks_total"
      ~help:"logical units across batches" Det (function
      | Pool_merged { tasks; _ } -> tasks | _ -> 0)

  let rows = List.rev !rev_rows
end

module Collector = struct
  type t = { mutex : Mutex.t; mutable events : event list (* newest first *) }

  type summary = { ints : int array; floats : float array }

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

  let get : type a. summary -> a Stat.t -> a =
   fun s st ->
    match st.kind with Int -> s.ints.(st.slot) | Float -> s.floats.(st.slot)

  let add : type a. summary -> a Stat.t -> event -> unit =
   fun s st ev ->
    match st.kind with
    | Int -> s.ints.(st.slot) <- s.ints.(st.slot) + st.of_event ev
    | Float -> s.floats.(st.slot) <- s.floats.(st.slot) +. st.of_event ev

  let summary t =
    let s =
      { ints = Array.make !Stat.n_ints 0;
        floats = Array.make !Stat.n_floats 0.0 }
    in
    List.iter
      (fun ev -> List.iter (fun (Stat.Row st) -> add s st ev) Stat.rows)
      (events t);
    s

  let delta ~before s =
    { ints = Array.map2 ( - ) s.ints before.ints;
      floats = Array.map2 ( -. ) s.floats before.floats }

  let pp_summary ppf s =
    let g st = get s st in
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
      (g Stat.draws) (g Stat.rejected) (g Stat.tests) (g Stat.gen_seconds)
      (g Stat.symex_seconds) (g Stat.symex_ticks) (g Stat.paths_completed)
      (g Stat.paths_pruned) (g Stat.paths_unknown) (g Stat.solver_calls)
      (g Stat.timeouts) (g Stat.solver_decisions) (g Stat.model_reuses)
      (g Stat.cache_hits) (g Stat.cache_misses) (g Stat.unique_tests)
      (g Stat.fuzz_draws) (g Stat.fuzz_execs) (g Stat.fuzz_new_tests)
      (g Stat.fuzz_edges_gained) (g Stat.difftests) (g Stat.difftest_execs)
      (g Stat.disagreeing_tests) (g Stat.pool_batches) (g Stat.pool_tasks)
end
