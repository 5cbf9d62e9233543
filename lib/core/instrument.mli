(** Per-stage instrumentation for the pipeline engine.

    Every stage of {!Pipeline} reports what it did through a [sink] —
    a plain event callback. The default sink drops everything at zero
    cost; {!Collector} keeps a run's events in emission order, and
    every view of a run is a function of that one log: the {!Stat}
    totals ([eywa stats], the bench's [--summary-json] and timing
    stage), and the span trace and metrics exposition of [Eywa_obs].

    Determinism contract: parallel pipeline units stay pure, so stage
    events are {e replayed} at the deterministic merge point in input
    (model-index) order, never from inside pool workers. Hence the
    event sequence a run emits is — modulo the two wall-clock fields
    of [Draw_finished] and the environment fields of [Pool_merged]
    ([computed]/[jobs]/[per_worker]/[queue_wait_ticks]/
    [refutations_reused]) — bit-for-bit
    independent of [jobs] and of the cache state; a cache hit replays
    even the wall-clock fields the stored run measured, so only the
    cache events themselves ([Cache_hit]/[Cache_miss]/
    [Cache_write_failed]) and [Pool_merged]'s environment fields
    distinguish a warm run from the cold run that filled the cache. *)

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
  | Cache_write_failed of {
      stage : string;
      key : string;
      message : string;  (** the [Sys_error] text *)
    }
      (** a {!Cache.store} whose disk write failed: the entry stays in
          memory only. Environment data, like the probes; no stat row
          counts it *)
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
          (** observations recorded over the suite (one per
              implementation per test), not engine runs — a
              deterministic counter, so difftest has per-stage
              attribution like symex ticks and fuzz execs *)
    }
  | Pool_merged of {
      label : string;
          (** stage name: ["draw"], ["fuzz"] or ["difftest:" ^ label] *)
      tasks : int;
          (** logical units of the stage: the [k] draws (["draw"]), the
              compiled draws (["fuzz"]), the suite's tests
              (["difftest:*"]) — deterministic, cache- and
              jobs-invariant *)
      computed : int;
          (** units actually executed this run: the distinct compiled
              programs among the cache misses, explored (the ["draw"]
              batch) or seeded (the ["fuzz"] batch) once for all their
              draws; cache-state-dependent, like
              [Cache_hit]/[Cache_miss]. A ["difftest:*"] batch has no
              cache and judges every test: [computed = tasks]. *)
      jobs : int;  (** pool size — environment data *)
      per_worker : int list;  (** scheduling-dependent — environment *)
      queue_wait_ticks : int;  (** pool-size-dependent — environment *)
      refutations_reused : int;
          (** the ["draw"] batch's branch probes that a worker's
              refutation table answered ({!Eywa_symex.Exec}); 0 for
              the other batches. Each worker has its own table, so the
              count depends on which drafts shared one — environment *)
    }
      (** Emitted once per pool batch at the deterministic merge point.
          Only [label] and [tasks] are part of the deterministic event
          stream; the remaining fields describe the environment the
          batch ran in and must be normalized away when comparing runs
          across pool sizes or cache states. *)

type sink = event -> unit

val null : sink
(** Drops every event. The default everywhere. *)

val pool_merged :
  ?refutations_reused:int -> label:string -> tasks:int -> Pool.map_stats -> event
(** The [Pool_merged] event of a stage's pool batch: [tasks] logical
    units, of which the batch's {!Pool.map_stats} computed
    [Pool.tasks]; [refutations_reused] defaults to 0. The one place a
    stage builds the event. *)

(** Whether a value is a function of the run's inputs alone ([Det]:
    identical across pool sizes, cache states and machines) or
    describes the environment the run happened in ([Env]: wall clock,
    cache traffic, pool utilization). Traces, metrics and summaries
    class every field with it, and strip the [Env] half to compare
    runs. *)
type cls = Det | Env

(** The stats table: every summed pipeline statistic, declared once.

    A row names a total (its [key] in the summary JSON), the metric
    that exposes it, its {!cls}, and what each event contributes to it.
    Every summed view is derived from {!rows}: {!Collector.summary},
    the [Eywa_obs.Metrics] counters and gauges, the summary-totals JSON
    and the bench's per-stage deltas. To add a stat, add one row here
    (and, if it is a per-draw symex count, one {!Eywa_symex.Exec.stats}
    field and column). *)
module Stat : sig
  type _ kind = Int : int kind | Float : float kind

  type 'a t = private {
    key : string;  (** summary-totals JSON key *)
    metric : string;  (** Prometheus name *)
    help : string;  (** [""] for none *)
    cls : cls;
    kind : 'a kind;
        (** [Int] rows expose as counters, [Float] rows as gauges
            holding the running total *)
    slot : int;  (** position among the rows of its kind *)
    of_event : event -> 'a;  (** contribution; zero for other events *)
  }

  type row = Row : 'a t -> row

  val rows : row list
  (** Every stat, in summary-totals order. *)

  val draws : int t
  (** [Draw_finished] events *)

  val rejected : int t
  (** [Compile_rejected] events *)

  val tests : int t
  (** tests over finished draws, before suite dedup *)

  val gen_seconds : float t
  (** wall clock *)

  val symex_seconds : float t
  (** wall clock *)

  val symex_ticks : int t
  val paths_completed : int t
  val paths_pruned : int t

  val paths_unknown : int t
  (** solves that hit the decision budget *)

  val solver_calls : int t

  val solver_decisions : int t
  (** search decisions executed *)

  val model_reuses : int t
  (** probes answered by the parent path's model *)

  val timeouts : int t
  (** draws that exhausted the tick budget *)

  val cache_hits : int t
  val cache_misses : int t

  val unique_tests : int t
  (** summed over [Suite_aggregated] events *)

  val fuzz_draws : int t
  (** [Fuzz_done] events *)

  val fuzz_execs : int t
  (** candidate executions, a deterministic counter *)

  val fuzz_new_tests : int t

  val fuzz_edges_gained : int t
  (** coverage gain summed over draws: [max 0 (edges_after - edges_seed)] *)

  val difftests : int t
  (** [Difftest_done] events *)

  val difftest_execs : int t
  (** observations over all suites (not engine runs) *)

  val disagreeing_tests : int t

  val pool_batches : int t
  (** [Pool_merged] events *)

  val pool_tasks : int t
  (** logical units summed over batches *)
end

(** Collecting sink: remembers events in emission order and folds them
    into the {!Stat} totals. Its [events] are the run's one log, which
    [Eywa_obs.Trace.of_events] and [Eywa_obs.Metrics.expose] render.
    Safe to share across domains (the adapters emit difftest events
    from the orchestrating domain, the pipeline from its merge point; a
    mutex guards the buffer regardless). *)
module Collector : sig
  type t

  type summary
  (** Every {!Stat} row's total. *)

  val create : unit -> t
  val sink : t -> sink
  val events : t -> event list
  (** In emission order. *)

  val summary : t -> summary
  val clear : t -> unit

  val get : summary -> 'a Stat.t -> 'a
  (** [get s Stat.symex_ticks] is that row's total. *)

  val delta : before:summary -> summary -> summary
  (** Row-wise difference: what happened between two summaries. *)

  val pp_summary : Format.formatter -> summary -> unit
  (** Human-readable multi-line rendering, one stage per line. *)
end
