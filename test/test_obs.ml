(* The PR-4 observability contract:

   - The wall-clock-stripped trace of a full run (synthesis + fuzz +
     difftest through one Obs context) is byte-identical at jobs=1 vs
     jobs=4 and warm vs cold cache, as is the env-stripped metrics
     exposition, whose sample for every Det stat equals that stat's
     summary total.
   - Every trace is well-formed: one root, every span closed, parents
     open before children, ids collision-free — across all 13 models.
   - Serialize.Json and the JSONL trace format round-trip exactly;
     strip is idempotent; the Chrome export is valid JSON.
   - Instrument.tee preserves sink order; the Collector survives
     concurrent emission from pool workers.
   - Difftest_done.execs equals report.observations and the summary's
     fuzz_edges_gained matches the per-draw coverage gains. *)

module Instrument = Eywa_core.Instrument
module Cache = Eywa_core.Cache
module Pool = Eywa_core.Pool
module Json = Eywa_core.Serialize.Json
module Trace = Eywa_obs.Trace
module Metrics = Eywa_obs.Metrics
module Export = Eywa_obs.Export
module Obs = Eywa_obs.Obs
module Model_def = Eywa_models.Model_def
module Dns_models = Eywa_models.Dns_models
module Dns_adapter = Eywa_models.Dns_adapter
module Difftest = Eywa_difftest.Difftest

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let oracle = Eywa_llm.Gpt.oracle ()
let model = Dns_models.cname

let fuzz_config = { Eywa_fuzz.Fuzz.default_config with budget = 120 }

(* One full observed run: synthesis, fuzz, difftest, all through the
   same context; [sink] sees the same events after the context. *)
let observed_run ?(sink = Instrument.null) ~jobs ~cache () =
  let ctx = Obs.create ~label:model.Model_def.id () in
  let sink = Instrument.tee (Obs.sink ctx) sink in
  let s =
    match
      Model_def.synthesize ~cache ~sink ~k:3 ~timeout:2.0 ~jobs ~oracle model
    with
    | Ok s -> s
    | Error e -> failwith e
  in
  (match
     Model_def.fuzz ~cache ~sink ~fuzz_config ~k:3 ~timeout:2.0 ~jobs ~oracle
       model s
   with
  | Ok _ -> ()
  | Error e -> failwith e);
  ignore
    (Dns_adapter.run ~jobs ~sink
       ~model_id:model.Model_def.id ~version:Eywa_dns.Impls.Old
       s.Eywa_core.Pipeline.unique_tests);
  ctx

let test_stripped_trace_identical () =
  (* run order matters: the second run must find the first one's cache
     warm, the third must start cold again *)
  let cache = Cache.create () in
  let collector = Instrument.Collector.create () in
  let ctx1 =
    observed_run ~sink:(Instrument.Collector.sink collector) ~jobs:1 ~cache ()
  in
  let ctx2 = observed_run ~jobs:4 ~cache () in
  let ctx3 = observed_run ~jobs:4 ~cache:(Cache.create ()) () in
  let stripped ctx = Export.to_jsonl (Trace.strip (Obs.finish ctx)) in
  let s1 = stripped ctx1 and s2 = stripped ctx2 and s3 = stripped ctx3 in
  check_string "jobs=1 cold = jobs=4 warm" s1 s2;
  check_string "jobs=1 cold = jobs=4 cold" s1 s3;
  let metrics ctx = Metrics.expose ~strip_env:true (Obs.metrics ctx) in
  check_string "stripped metrics jobs=1 cold = jobs=4 warm" (metrics ctx1)
    (metrics ctx2);
  check_string "stripped metrics jobs=1 cold = jobs=4 cold" (metrics ctx1)
    (metrics ctx3);
  (* the unstripped traces DO differ (cache events, pool env), so the
     strip is doing real work *)
  check "unstripped warm trace differs from cold" true
    (Export.to_jsonl (Obs.finish ctx1) <> Export.to_jsonl (Obs.finish ctx2));
  (* the summary totals and the metrics are two views of one stats
     table: every Det row reads the same in both *)
  let totals =
    Export.summary_totals (Instrument.Collector.summary collector)
  in
  let samples =
    String.split_on_char '\n' (metrics ctx1)
    |> List.filter_map (fun l ->
           match String.split_on_char ' ' l with
           | [ name; v ] when l.[0] <> '#' -> Some (name, v)
           | _ -> None)
  in
  let rows = Instrument.Stat.rows in
  List.iter
    (fun (Instrument.Stat.Row st) ->
      if st.cls = Det then
        match (Json.member st.key totals, List.assoc_opt st.metric samples) with
        | Some v, Some sample ->
            check_string (st.key ^ " total = " ^ st.metric) (Json.to_string v)
              sample
        | None, _ -> Alcotest.failf "no %S in the summary totals" st.key
        | _, None -> Alcotest.failf "no %S in the stripped metrics" st.metric)
    rows;
  let unique names =
    List.length (List.sort_uniq compare names) = List.length names
  in
  check "stat keys are unique" true
    (unique (List.map (fun (Instrument.Stat.Row st) -> st.key) rows));
  check "stat metric names are unique" true
    (unique (List.map (fun (Instrument.Stat.Row st) -> st.metric) rows))

let test_well_formed_all_models () =
  let traces =
    List.map
      (fun (m : Model_def.t) ->
        let ctx = Obs.create ~label:m.id () in
        (match
           Model_def.synthesize ~sink:(Obs.sink ctx) ~k:1 ~timeout:1.0 ~jobs:2
             ~oracle m
         with
        | Ok _ -> ()
        | Error e -> failwith (m.id ^ ": " ^ e));
        Obs.finish ctx)
      Eywa_models.All_models.all
  in
  check_int "all 13 models traced" 13 (List.length traces);
  List.iter
    (fun (t : Trace.t) ->
      match Trace.well_formed t with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s: malformed trace: %s" t.Trace.label e)
    traces;
  (* ids are collision-free across models too: every id is rooted at
     the model's label *)
  let all_ids = List.concat_map Trace.span_ids traces in
  check_int "ids collision-free across the 13 models"
    (List.length all_ids)
    (List.length (List.sort_uniq compare all_ids))

let test_trace_roundtrip_and_strip () =
  let t = Obs.finish (observed_run ~jobs:2 ~cache:(Cache.create ()) ()) in
  (match Export.of_jsonl (Export.to_jsonl t) with
  | Ok t' -> check "JSONL round-trips the trace" true (t' = t)
  | Error e -> Alcotest.failf "of_jsonl: %s" e);
  let s = Trace.strip t in
  check "strip is idempotent" true (Trace.strip s = s);
  (match Export.of_jsonl (Export.to_jsonl s) with
  | Ok s' -> check "stripped trace round-trips too" true (s' = s)
  | Error e -> Alcotest.failf "of_jsonl (stripped): %s" e);
  (match Json.of_string (Export.chrome_trace t) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "chrome export is not valid JSON: %s" e);
  match Trace.well_formed t with
  | Ok () -> ()
  | Error e -> Alcotest.failf "malformed trace: %s" e

(* ----- Serialize.Json ----- *)

let json_gen =
  let open QCheck.Gen in
  let finite_float =
    map (fun f -> if Float.is_finite f then f else 0.5) float
  in
  let scalar =
    oneof
      [
        return Json.Null;
        map (fun b -> Json.Bool b) bool;
        map (fun i -> Json.Int i) int;
        map (fun f -> Json.Float f) finite_float;
        map (fun s -> Json.Str s) (string_size (0 -- 12));
      ]
  in
  sized
  @@ fix (fun self n ->
         if n <= 0 then scalar
         else
           frequency
             [
               (3, scalar);
               ( 1,
                 map (fun l -> Json.List l)
                   (list_size (0 -- 4) (self (n / 2))) );
               ( 1,
                 map
                   (fun l -> Json.Obj l)
                   (list_size (0 -- 4)
                      (pair (string_size (0 -- 6)) (self (n / 2)))) );
             ])

let qcheck_json_roundtrip =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:500 ~name:"Json.of_string inverts to_string"
       (QCheck.make json_gen) (fun v ->
         match Json.of_string (Json.to_string v) with
         | Ok v' -> v' = v
         | Error _ -> false))

let test_json_units () =
  check_string "canonical compact form"
    {|{"a":1,"b":[true,null,"x\n"],"c":1.5}|}
    (Json.to_string
       (Json.Obj
          [
            ("a", Json.Int 1);
            ("b", Json.List [ Json.Bool true; Json.Null; Json.Str "x\n" ]);
            ("c", Json.Float 1.5);
          ]));
  check "pretty form parses back" true
    (Json.of_string
       (Json.to_string_pretty
          (Json.Obj [ ("a", Json.List [ Json.Int 1; Json.Int 2 ]) ]))
    = Ok (Json.Obj [ ("a", Json.List [ Json.Int 1; Json.Int 2 ]) ]));
  check "floats keep their type" true
    (Json.of_string "3.0" = Ok (Json.Float 3.0));
  check "ints keep theirs" true (Json.of_string "3" = Ok (Json.Int 3));
  check "control chars escape and return" true
    (Json.of_string (Json.to_string (Json.Str "\x01\x02\xff"))
    = Ok (Json.Str "\x01\x02\xff"));
  check "trailing garbage rejected" true
    (match Json.of_string "1 2" with Error _ -> true | Ok _ -> false);
  check "non-finite floats are a programming error" true
    (match Json.to_string (Json.Float Float.nan) with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* ----- metrics registry ----- *)

let test_metrics_registry () =
  let r = Metrics.create () in
  let c = Metrics.counter r ~help:"things" "things_total" in
  Metrics.inc c 3;
  let g = Metrics.gauge r ~cls:Metrics.Env ~help:"secs" "wall_seconds" in
  Metrics.set_gauge g 1.5;
  let h = Metrics.histogram r ~buckets:[ 1.0; 5.0 ] ~help:"sz" "sizes" in
  Metrics.observe h 0.5;
  Metrics.observe h 3.0;
  Metrics.observe h 10.0;
  let v =
    Metrics.counter_vec r ~label:"worker" ~help:"per worker" "worker_total"
  in
  Metrics.inc_vec v "1" 2;
  Metrics.inc_vec v "0" 1;
  let text = Metrics.expose r in
  let has needle =
    let nl = String.length needle and tl = String.length text in
    let rec go i = i + nl <= tl && (String.sub text i nl = needle || go (i + 1)) in
    go 0
  in
  check "counter sample" true (has "things_total 3");
  check "gauge sample" true (has "wall_seconds 1.5");
  check "histogram buckets are cumulative" true
    (has {|sizes_bucket{le="1.0"} 1|}
    && has {|sizes_bucket{le="5.0"} 2|}
    && has {|sizes_bucket{le="+Inf"} 3|});
  check "histogram sum and count" true
    (has "sizes_sum 13.5" && has "sizes_count 3");
  check "vec cells sorted by label value" true
    (has {|worker_total{worker="0"} 1|} && has {|worker_total{worker="1"} 2|});
  let stripped = Metrics.expose ~strip_env:true r in
  check "strip_env drops the Env gauge" true
    (not
       (let nl = String.length "wall_seconds" in
        let rec go i =
          i + nl <= String.length stripped
          && (String.sub stripped i nl = "wall_seconds" || go (i + 1))
        in
        go 0));
  check "duplicate names are rejected" true
    (match Metrics.counter r "things_total" with
    | exception Invalid_argument _ -> true
    | _ -> false);
  check "buckets must strictly increase" true
    (match Metrics.histogram r ~buckets:[ 2.0; 2.0 ] "bad" with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* ----- instrument plumbing ----- *)

let test_tee_ordering () =
  let order = ref [] in
  let sink =
    Instrument.tee
      (fun _ -> order := "first" :: !order)
      (fun _ -> order := "second" :: !order)
  in
  sink (Instrument.Draw_started { index = 0 });
  sink (Instrument.Draw_started { index = 1 });
  Alcotest.(check (list string))
    "left sink of tee fires before the right one, per event"
    [ "first"; "second"; "first"; "second" ]
    (List.rev !order)

let qcheck_collector_cross_domain =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:25
       ~name:"Collector survives concurrent emit from pool workers"
       QCheck.(list_of_size Gen.(0 -- 60) small_nat)
       (fun xs ->
         let c = Instrument.Collector.create () in
         let sink = Instrument.Collector.sink c in
         let ys =
           Pool.with_pool ~jobs:4 (fun pool ->
               Pool.map pool
                 (fun x ->
                   sink (Instrument.Draw_started { index = x });
                   sink
                     (Instrument.Symex_done
                        {
                          index = x;
                          stats =
                            {
                              Eywa_symex.Exec.ticks_used = x;
                              paths_completed = 1;
                              paths_pruned = 0;
                              paths_unknown = 0;
                              solver_calls = 0;
                              solver_decisions = 0;
                              model_reuses = 0;
                              timed_out = false;
                            };
                        });
                   x)
                 xs)
         in
         ys = xs
         && List.length (Instrument.Collector.events c) = 2 * List.length xs
         && Instrument.(Collector.get (Collector.summary c) Stat.symex_ticks)
            = List.fold_left ( + ) 0 xs))

(* ----- difftest + fuzz counters ----- *)

let test_difftest_execs () =
  let s =
    match Model_def.synthesize ~k:2 ~timeout:2.0 ~jobs:1 ~oracle model with
    | Ok s -> s
    | Error e -> failwith e
  in
  let c = Instrument.Collector.create () in
  let r =
    Dns_adapter.run ~jobs:2 ~sink:(Instrument.Collector.sink c)
      ~model_id:model.Model_def.id ~version:Eywa_dns.Impls.Old
      s.Eywa_core.Pipeline.unique_tests
  in
  check "difftest recorded executions" true (r.Difftest.observations > 0);
  let summary = Instrument.Collector.summary c in
  check_int "Difftest_done.execs = report.observations"
    r.Difftest.observations
    (Instrument.Collector.get summary Instrument.Stat.difftest_execs);
  let execs_evt =
    List.filter_map
      (function
        | Instrument.Difftest_done { execs; label; _ } -> Some (label, execs)
        | _ -> None)
      (Instrument.Collector.events c)
  in
  check "one Difftest_done, labelled by the model" true
    (execs_evt = [ (model.Model_def.id, r.Difftest.observations) ]);
  check_int "per-suite counter is per-test exec sum"
    (List.length
       (List.filter
          (fun (t : Eywa_core.Testcase.t) -> not t.bad_input)
          s.Eywa_core.Pipeline.unique_tests)
     * List.length Eywa_dns.Impls.all)
    r.Difftest.observations

let test_summary_fuzz_edges_gained () =
  let s =
    match Model_def.synthesize ~k:2 ~timeout:2.0 ~jobs:1 ~oracle model with
    | Ok s -> s
    | Error e -> failwith e
  in
  let c = Instrument.Collector.create () in
  let f =
    match
      Model_def.fuzz ~sink:(Instrument.Collector.sink c) ~fuzz_config ~k:2
        ~timeout:2.0 ~jobs:1 ~oracle model s
    with
    | Ok f -> f
    | Error e -> failwith e
  in
  let expected =
    List.fold_left
      (fun acc (d : Eywa_fuzz.Fuzz.draw_fuzz) ->
        acc + max 0 (d.edges_after - d.edges_seed))
      0 f.Eywa_fuzz.Fuzz.per_draw
  in
  check_int "summary.fuzz_edges_gained sums per-draw gains" expected
    Instrument.(Collector.get (Collector.summary c) Stat.fuzz_edges_gained);
  (* only the fuzz stage ran under this sink: one pool batch, one
     logical unit per draw *)
  check_int "summary counts the pool batches" 1
    Instrument.(Collector.get (Collector.summary c) Stat.pool_batches);
  check "the batch is the fuzz stage's" true
    (List.exists
       (function
         | Instrument.Pool_merged { label = "fuzz"; _ } -> true | _ -> false)
       (Instrument.Collector.events c))

let suite =
  [
    Alcotest.test_case "stripped trace and metrics byte-identical (jobs, cache)"
      `Slow test_stripped_trace_identical;
    Alcotest.test_case "traces well-formed, ids unique across all models" `Slow
      test_well_formed_all_models;
    Alcotest.test_case "JSONL round-trip, strip idempotent, Chrome valid" `Slow
      test_trace_roundtrip_and_strip;
    qcheck_json_roundtrip;
    Alcotest.test_case "Json canonical printing and parsing" `Quick
      test_json_units;
    Alcotest.test_case "metrics registry exposition" `Quick
      test_metrics_registry;
    Alcotest.test_case "tee preserves sink order" `Quick test_tee_ordering;
    qcheck_collector_cross_domain;
    Alcotest.test_case "Difftest_done.execs = report.observations" `Slow
      test_difftest_execs;
    Alcotest.test_case "fuzz_edges_gained and pool_batches in the summary"
      `Slow test_summary_fuzz_edges_gained;
  ]
