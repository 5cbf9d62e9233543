(** Metrics registry: counters, gauges and fixed-bucket histograms with
    a Prometheus-style text exposition.

    Instruments register in creation order and expose in that order, so
    the text form is deterministic. Histograms take their bucket bounds
    at creation and never rebucket, and every observation happens at the
    pipeline's deterministic merge point in input-index order — merged
    output is therefore jobs-invariant for [Det]-classed instruments.
    [Env]-classed instruments (wall-clock, cache hit/miss, pool
    utilization) are machine-, cache- or pool-size-dependent;
    {!expose} can leave them out so the remainder is comparable across
    runs. *)

type cls = Eywa_core.Instrument.cls = Det | Env

type t
(** A registry. Instrument updates and {!expose} are serialized by an
    internal mutex. *)

val create : unit -> t

type counter

val counter : t -> ?cls:cls -> ?help:string -> string -> counter
(** Registers (or raises [Invalid_argument] on a name already taken).
    [cls] defaults to [Det]. *)

val inc : counter -> int -> unit

type gauge

val gauge : t -> ?cls:cls -> ?help:string -> string -> gauge
val set_gauge : gauge -> float -> unit

type histogram

val histogram :
  t -> ?cls:cls -> ?help:string -> buckets:float list -> string -> histogram
(** [buckets] are the upper bounds, strictly increasing; an implicit
    [+Inf] bucket is always appended. *)

val observe : histogram -> float -> unit

type vec

val counter_vec : t -> ?cls:cls -> ?help:string -> label:string -> string -> vec
(** A counter family keyed by one label (e.g. per-worker task counts).
    Label values expose in sorted order. *)

val inc_vec : vec -> string -> int -> unit

val expose : ?strip_env:bool -> t -> string
(** Prometheus text exposition ([# HELP]/[# TYPE] then samples), in
    registration order. With [strip_env:true], [Env]-classed
    instruments are omitted entirely — the remaining text is
    deterministic across machines, pool sizes and cache states. *)
