(** Per-stage instrumentation for the pipeline engine.

    Every stage of {!Pipeline} reports what it did through a [sink] —
    a plain event callback. The default sink drops everything at zero
    cost; {!Collector} accumulates events for the bench's timing
    stage, the CLI [stats] subcommand, and tests.

    Determinism contract: parallel pipeline units stay pure, so stage
    events are {e replayed} at the deterministic merge point in input
    (model-index) order, never from inside pool workers. Hence the
    event sequence a run emits is — modulo the two wall-clock fields
    of [Draw_finished] and the environment fields of [Pool_merged]
    ([computed]/[jobs]/[per_worker]/[queue_wait_ticks]) — bit-for-bit
    independent of [jobs] and of the cache state; a cache hit replays
    even the wall-clock fields the stored run measured, so only the
    [Cache_hit]/[Cache_miss] events themselves (and [Pool_merged]'s
    environment fields) distinguish a warm run from the cold run that
    filled the cache. *)

type event =
  | Draw_started of { index : int }
  | Draw_finished of {
      index : int;
      tests : int;
      gen_seconds : float;  (** wall clock; machine-dependent *)
      symex_seconds : float;  (** wall clock; machine-dependent *)
    }
  | Compile_rejected of {
      index : int;
      stage : string;  (** ["oracle"] or ["typecheck"] *)
      message : string;
    }
  | Symex_done of { index : int; stats : Eywa_symex.Exec.stats }
      (** every field is deterministic: [stats] is a function of the
          draw's inputs alone, and a cache hit replays it *)
  | Cache_hit of { stage : string; key : string  (** hex digest *) }
  | Cache_miss of { stage : string; key : string }
  | Suite_aggregated of { draws : int; unique_tests : int }
  | Fuzz_done of {
      index : int;
      execs : int;  (** candidate executions = deterministic tick budget *)
      edges_seed : int;  (** edges covered by the symex seed suite *)
      edges_after : int;  (** edges covered after fuzzing *)
      new_tests : int;  (** coverage-increasing tests the fuzzer kept *)
    }
  | Fuzz_aggregated of { draws : int; fuzz_tests : int; combined_tests : int }
  | Difftest_done of {
      label : string;  (** model id or suite name *)
      total_tests : int;
      disagreeing_tests : int;
      tuples : int;  (** unique root-cause tuples *)
      execs : int;
          (** implementation executions recorded over the suite — a
              deterministic counter, so difftest has per-stage
              attribution like symex ticks and fuzz execs *)
    }
  | Pool_merged of {
      label : string;  (** stage name, e.g. ["draw"], ["fuzz"] *)
      tasks : int;
          (** logical units of the stage (e.g. [k] draws) —
              deterministic, cache- and jobs-invariant *)
      computed : int;
          (** units actually executed this run: cache misses, and for
              the ["draw"] batch the distinct compiled programs
              explored among them (duplicate draws share one
              exploration); cache-state-dependent, like
              [Cache_hit]/[Cache_miss] *)
      jobs : int;  (** pool size — environment data *)
      per_worker : int list;  (** scheduling-dependent — environment *)
      queue_wait_ticks : int;  (** pool-size-dependent — environment *)
    }
      (** Emitted once per pool batch at the deterministic merge point.
          Only [label] and [tasks] are part of the deterministic event
          stream; the remaining fields describe the environment the
          batch ran in and must be normalized away when comparing runs
          across pool sizes or cache states. *)

type sink = event -> unit

val null : sink
(** Drops every event. The default everywhere. *)

val tee : sink -> sink -> sink

(** Collecting sink: remembers events in emission order and folds them
    into summary counters. Safe to share across domains (the adapters
    emit difftest events from the orchestrating domain, the pipeline
    from its merge point; a mutex guards the buffer regardless). *)
module Collector : sig
  type t

  type summary = {
    draws : int;  (** [Draw_finished] events *)
    rejected : int;  (** [Compile_rejected] events *)
    tests : int;  (** tests over finished draws, before suite dedup *)
    gen_seconds : float;
    symex_seconds : float;
    symex_ticks : int;
    paths_completed : int;
    paths_pruned : int;
    paths_unknown : int;  (** solves that hit the decision budget *)
    solver_calls : int;
    solver_decisions : int;  (** search decisions executed *)
    model_reuses : int;  (** probes answered by the parent path's model *)
    timeouts : int;  (** draws that exhausted the tick budget *)
    cache_hits : int;
    cache_misses : int;
    unique_tests : int;  (** summed over [Suite_aggregated] events *)
    fuzz_draws : int;  (** [Fuzz_done] events *)
    fuzz_execs : int;  (** candidate executions, a deterministic counter *)
    fuzz_new_tests : int;
    fuzz_edges_gained : int;
        (** coverage gain summed over draws:
            [max 0 (edges_after - edges_seed)] *)
    difftests : int;
    difftest_execs : int;  (** implementation executions over all suites *)
    disagreeing_tests : int;
    pool_batches : int;  (** [Pool_merged] events *)
    pool_tasks : int;  (** logical units summed over batches *)
  }

  val create : unit -> t
  val sink : t -> sink
  val events : t -> event list
  (** In emission order. *)

  val summary : t -> summary
  val clear : t -> unit

  val pp_summary : Format.formatter -> summary -> unit
  (** Human-readable multi-line rendering, one stage per line. *)
end
