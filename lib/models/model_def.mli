(** A named Eywa model (one row of Table 2): its module graph, entry
    module, and synthesis parameters. *)

type t = {
  id : string;  (** Table 2 name, e.g. "CNAME" *)
  protocol : string;
      (** "DNS" | "BGP" | "SMTP" | "TCP"; {!Protocol} picks the adapter
          by it *)
  graph : Eywa_core.Graph.t;
  main : Eywa_core.Emodule.t;
  spec_loc : int;  (** lines of the defining model code (Table 2 "LOC") *)
  alphabet : char list;  (** character domain for this model's strings *)
  timeout : float;  (** per-model symbolic execution budget, seconds *)
}

val pipeline_config :
  ?k:int ->
  ?temperature:float ->
  ?seed:int ->
  ?timeout:float ->
  t ->
  Eywa_core.Pipeline.config
(** The exact config {!synthesize} runs with — exposed so stages
    layered on a synthesis result (the fuzz stage's cache key) can
    reproduce it instead of guessing, and so a caller that needs
    another budget can start from it and run {!Eywa_core.Pipeline.run}. *)

val synthesize :
  ?cache:Eywa_core.Cache.t ->
  ?sink:Eywa_core.Instrument.sink ->
  ?k:int ->
  ?temperature:float ->
  ?seed:int ->
  ?timeout:float ->
  ?jobs:int ->
  oracle:Eywa_core.Oracle.t ->
  t ->
  (Eywa_core.Pipeline.t, string) result
(** Run the full pipeline with this model's alphabet; [timeout]
    overrides the model's default budget. [jobs] fans the [k] draws
    out over a domain pool (see {!Eywa_core.Pipeline.run}); the result
    is identical at any value. [cache] content-addresses the per-draw
    artifacts and [sink] receives stage events — both default to off;
    pass an {!Eywa_core.Instrument.Collector}'s sink to keep the event
    log that [Eywa_obs] renders as a span trace and metrics. *)

val fuzz :
  ?cache:Eywa_core.Cache.t ->
  ?sink:Eywa_core.Instrument.sink ->
  ?fuzz_config:Eywa_fuzz.Fuzz.config ->
  ?k:int ->
  ?temperature:float ->
  ?seed:int ->
  ?timeout:float ->
  ?jobs:int ->
  oracle:Eywa_core.Oracle.t ->
  t ->
  Eywa_core.Pipeline.t ->
  (Eywa_fuzz.Fuzz.t, string) result
(** Run the coverage-guided fuzz stage over a synthesis result of this
    model (see {!Eywa_fuzz.Fuzz.fuzz_of_seeds}). The synthesis
    parameters must match the ones [suite] was produced with — they
    feed the fuzz cache key. *)
