(** Prometheus-style text exposition of a run's event log.

    A pure function of the {!Eywa_core.Instrument} events a run emitted
    (a {!Eywa_core.Instrument.Collector}'s [events]): each metric is a
    fold of the whole log. The metrics are one counter per [Int] row of
    {!Eywa_core.Instrument.Stat.rows} and one total gauge per [Float]
    row, each classed as its row is; fixed-bucket histograms of tests
    and symex ticks per draw, fuzz edge gain per round and difftest
    executions per suite ([Det]); and the pool's computed units,
    queue-wait ticks, last pool size and per-worker tasks ([Env]).
    Histogram buckets are fixed, never derived from the data, and events
    are emitted at the pipeline's deterministic merge point, so the
    [Det] metrics are jobs-invariant. [Env] metrics (wall clock, cache
    traffic, pool utilization) depend on the machine, the cache and the
    pool size. *)

val expose : ?strip_env:bool -> Eywa_core.Instrument.event list -> string
(** [# HELP]/[# TYPE] lines, then samples, in a fixed order: the pool's
    [Env] metrics, the [Env] rows, the histograms, the [Det] rows (each
    row group last-declared first). For every [Det] row the sample
    equals that row's {!Eywa_core.Instrument.Collector} total. With
    [strip_env:true], [Env] metrics are left out: the rest is
    byte-identical across machines, pool sizes and cache states. *)
