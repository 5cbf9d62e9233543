(** Trace and summary exporters.

    Three formats, all built on {!Eywa_core.Serialize.Json} so output
    is valid, canonical JSON:

    - {b JSONL}: one item per line, meta line first. The
      wall-clock-stripped JSONL of a run ({!Trace.strip} then
      {!to_jsonl}) is byte-identical across pool sizes and cache
      states — the property [make trace-smoke] and [test_obs]
      assert.
    - {b Chrome [trace_event]}: loads in [about://tracing] /
      Perfetto; spans become ["ph":"X"] complete events on the logical
      clock (1 tick = 1 ms), point events ["ph":"i"] instants.
    - {b summary totals}: the shared JSON schema of bench
      [--summary-json] and [eywa stats --json]. *)

val to_jsonl : Trace.t -> string
(** One JSON document per line: a [{"type":"meta",...}] header, then
    every item in trace order. *)

val of_jsonl : string -> (Trace.t, string) result
(** Exact inverse of {!to_jsonl}; the first malformed line aborts with
    its line number. *)

val chrome_trace : Trace.t -> string
(** A complete [{"traceEvents":[...]}] document. Deterministic
    attributes appear under [args.det], environment attributes under
    [args.env]. *)

val summary_fields :
  Eywa_core.Instrument.Collector.summary ->
  (string * Eywa_core.Serialize.Json.t) list
(** One [(key, total)] field per {!Eywa_core.Instrument.Stat.rows} row,
    in table order: integers for [Int] rows, floats for the wall-clock
    [*_seconds] rows, so consumers can strip those by name. *)

val summary_totals : Eywa_core.Instrument.Collector.summary -> Eywa_core.Serialize.Json.t
(** [summary_fields] as one flat JSON object — the ["totals"] schema
    shared by bench [--summary-json] and [stats --json]. *)
