(** Observability context: one run's span tree and metrics, fed by a
    single {!Eywa_core.Instrument.sink}.

    Pass {!sink} anywhere a sink goes — the [?sink] of
    {!Eywa_models.Model_def.synthesize}, [fuzz] and the adapters' [run]
    — and {!Eywa_core.Instrument.tee} it with another sink to feed
    both; every event updates both the {!Trace.builder} and the
    metrics registry under one mutex, so a context is safe to share
    with any code that follows the [Instrument] emit-at-merge-point
    contract. *)

type t

val create : label:string -> unit -> t
(** A fresh context whose root span id is [label], with a fresh
    registry holding the standard pipeline instruments: one counter
    per [Int] row of {!Eywa_core.Instrument.Stat.rows} and one
    running-total gauge per [Float] row, each classed as its row is;
    fixed-bucket histograms of tests and symex ticks per draw, fuzz
    edge gain per round and difftest executions per suite ([Det]); and
    the pool's computed units, queue-wait ticks, size and per-worker
    tasks ([Env]). *)

val sink : t -> Eywa_core.Instrument.sink

val metrics : t -> Metrics.t

val finish : t -> Trace.t
(** Snapshot the trace (see {!Trace.finish}). *)
