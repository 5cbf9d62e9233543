(** Span trees over {!Eywa_core.Instrument} event streams.

    A trace is the tree the flat event stream already implies: a root
    span for the run, one span per draw (opened at [Draw_started],
    closed at [Draw_finished]), child spans/events for symex, compile
    rejections, fuzz rounds and difftest suites, and [Env] point events
    for cache probes and failed cache writes. A trace is a pure
    rendering of the event log ({!of_events}).

    Determinism contract (the same one [Instrument] documents): span
    ids derive from the run label, stage name and model index — never
    from wall time, machine identity or pool size — and timestamps are
    a {e logical clock} (the event's position in the stream), so the
    deterministic portion of a trace is bit-for-bit independent of
    [jobs] and, after {!strip}, of the cache state. Every attribute is
    classed [Det] or [Env]: wall-clock [*_seconds], cache keys and
    pool-utilization data are [Env] and removed by {!strip}; ticks,
    paths, edges and test counts are [Det] and must stay identical
    across pool sizes and cache states. *)

type cls = Eywa_core.Instrument.cls = Det | Env

type attrs = (string * Eywa_core.Serialize.Json.t) list

type item =
  | Span of {
      id : string;
      parent : string option;  (** [None] only for the root span *)
      name : string;
      start_at : int;  (** logical clock: event sequence number *)
      end_at : int;  (** [-1] when the span was never closed *)
      cls : cls;
      det : attrs;
      env : attrs;
    }
  | Event of {
      id : string;
      parent : string option;
      name : string;
      at : int;
      cls : cls;
      det : attrs;
      env : attrs;
    }

type t = { label : string; items : item list  (** root span first *) }

val of_events : label:string -> Eywa_core.Instrument.event list -> t
(** The trace of an event log, in emission order (a
    {!Eywa_core.Instrument.Collector}'s [events]), whose root span id
    is [label]. Each event ticks the logical clock once. Draws still
    open at the end (a [Draw_started] without its [Draw_finished])
    become spans with [end_at = -1], which {!well_formed} reports. *)

val well_formed : t -> (unit, string) result
(** Structural validity: exactly one root span; ids collision-free;
    every span closed with [end_at >= start_at]; every parent exists,
    is a span, and opened before (and closes after) the child. *)

val strip : t -> t
(** Drop [Env]-classed items and every [env] attribute list — the
    wall-clock-stripped view. [strip] output is byte-identical across
    pool sizes and cache states for the same (seed, prompt,
    temperature) run; idempotent. *)

val span_ids : t -> string list
(** Ids of all items, in trace order. *)
