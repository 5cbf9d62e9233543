(** Fixed-size domain work-pool for the pipeline's stages.

    Their hot loops are embarrassingly parallel: the synthesis stage's
    per-program exploration in {!Pipeline.run} (and its per-text
    parses and per-draft builds), the fuzz stage's per-program batch
    in [Fuzz.fuzz_of_seeds], and the per-test loops of differential
    testing and attribution in [Difftest]. This pool runs them across
    OCaml domains while keeping the pipeline's determinism invariant:
    {!map} merges results by input index, never by completion order,
    so output is bit-for-bit independent of the pool size. *)

type t

val default_jobs : unit -> int
(** The [EYWA_JOBS] environment variable if set to a positive integer,
    otherwise [Domain.recommended_domain_count ()]. *)

val jobs : int option -> int
(** The pool size a stage runs at given its optional [?jobs]: [max 1 j]
    for [Some j], {!default_jobs} for [None]. Every stage resolves its
    [?jobs] here. *)

val create : jobs:int -> t
(** Spawn a pool of [max 1 jobs] worker domains ([jobs <= 1] spawns
    none and makes {!map} run inline). Creating a pool from inside a
    pool worker yields a degenerate inline pool — nested parallelism
    would oversubscribe the machine and risk deadlock. A worker domain
    lives exactly as long as its pool, and so does its domain-local
    state (its term ids, intern table and refutation table). *)

val size : t -> int

val shutdown : t -> unit
(** Drain the queue, stop and join the workers. Idempotent. *)

val with_pool : jobs:int -> (t -> 'a) -> 'a
(** [with_pool ~jobs f] runs [f] with a fresh pool and shuts it down
    afterwards, whether [f] returns or raises. *)

val map : t -> ('a -> 'b) -> 'a list -> 'b list
(** Order-preserving parallel map: [map pool f xs] equals
    [List.map f xs] for deterministic [f], whatever the pool size.
    On failure the exception belonging to the {e smallest} failing
    index is re-raised — the same exception a sequential left-to-right
    run surfaces first (the parallel path may have attempted the
    remaining elements, the inline path stops early; with a
    deterministic [f] the observable result is identical). Calls from
    inside a pool worker run inline sequentially. *)

type map_stats = {
  tasks : int;  (** elements mapped — equals [List.length xs] *)
  jobs : int;  (** the pool's size, 1 when the map ran inline *)
  per_worker : int list;
      (** tasks each worker executed, by worker index ([[tasks]] for an
          inline run). Scheduling-dependent: which worker grabs which
          task varies run to run — environment data, never part of a
          deterministic trace/cache key. *)
  queue_wait_ticks : int;
      (** sum over tasks of the queue backlog at enqueue time — a
          deterministic function of batch size and queue state, but
          pool-size-dependent (0 inline), so environment data too. *)
}
(** Utilization stats of one {!map_stats} batch, for the observability
    layer. Only [tasks] is invariant across pool sizes. *)

val map_stats : t -> ('a -> 'b) -> 'a list -> 'b list * map_stats
(** {!map} plus the batch's utilization stats. The result list obeys
    the same determinism contract as {!map}; the stats do not (see
    {!type:map_stats}). *)

val in_worker : unit -> bool
(** Whether the calling domain is one of a pool's workers. *)
