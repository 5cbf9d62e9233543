type t = {
  id : string;
  protocol : string;
  graph : Eywa_core.Graph.t;
  main : Eywa_core.Emodule.t;
  spec_loc : int;
  alphabet : char list;
  timeout : float;
}

let pipeline_config ?(k = 10) ?(temperature = 0.6) ?(seed = 42) ?timeout
    ?max_paths t =
  let config =
    {
      Eywa_core.Pipeline.default_config with
      k;
      temperature;
      timeout = (match timeout with Some s -> s | None -> t.timeout);
      alphabet = t.alphabet;
      base_seed = seed;
    }
  in
  match max_paths with Some n -> { config with max_paths = n } | None -> config

let synthesize ?cache ?sink ?k ?temperature ?seed ?timeout ?max_paths ?jobs
    ~oracle t =
  let config = pipeline_config ?k ?temperature ?seed ?timeout ?max_paths t in
  Eywa_core.Pipeline.run ?cache ?sink ~config ?jobs ~oracle t.graph
    ~main:t.main

let fuzz ?cache ?sink ?fuzz_config ?k ?temperature ?seed ?timeout ?max_paths
    ?jobs ~oracle t suite =
  let pipeline = pipeline_config ?k ?temperature ?seed ?timeout ?max_paths t in
  Eywa_fuzz.Fuzz.fuzz_of_seeds ?cache ?sink ?config:fuzz_config ?jobs
    ~oracle_name:oracle.Eywa_core.Oracle.name ~pipeline t.graph suite
