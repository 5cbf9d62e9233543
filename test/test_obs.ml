(* The observability contract:

   - Traces and metrics are renderings of one event log: on a fixed
     event list holding every constructor, Trace.of_events (JSONL and
     Chrome) and Metrics.expose (stripped and not) print the golden
     texts under test/golden/render-gold*.
   - The wall-clock-stripped trace of a full run (synthesis + fuzz +
     difftest into one Collector) is byte-identical at jobs=1 vs
     jobs=4 and warm vs cold cache, as is the env-stripped metrics
     exposition, whose sample for every Det stat equals that stat's
     summary total.
   - Every trace is well-formed: one root, every span closed, parents
     open before children, ids collision-free — across all 13 models.
   - Serialize.Json and the JSONL trace format round-trip exactly;
     strip is idempotent; the Chrome export is valid JSON.
   - The Collector survives concurrent emission from pool workers.
   - Difftest_done.execs equals report.observations and the summary's
     fuzz_edges_gained matches the per-draw coverage gains. *)

module Instrument = Eywa_core.Instrument
module Cache = Eywa_core.Cache
module Pool = Eywa_core.Pool
module Json = Eywa_core.Serialize.Json
module Trace = Eywa_obs.Trace
module Metrics = Eywa_obs.Metrics
module Export = Eywa_obs.Export
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

(* One full observed run: synthesis, fuzz, difftest, all into one
   collector, whose event log every view below renders. *)
let observed_run ~jobs ~cache () =
  let c = Instrument.Collector.create () in
  let sink = Instrument.Collector.sink c in
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
  c

let trace_of c =
  Trace.of_events ~label:model.Model_def.id (Instrument.Collector.events c)

let test_stripped_trace_identical () =
  (* run order matters: the second run must find the first one's cache
     warm, the third must start cold again *)
  let cache = Cache.create () in
  let c1 = observed_run ~jobs:1 ~cache () in
  let c2 = observed_run ~jobs:4 ~cache () in
  let c3 = observed_run ~jobs:4 ~cache:(Cache.create ()) () in
  let stripped c = Export.to_jsonl (Trace.strip (trace_of c)) in
  let s1 = stripped c1 and s2 = stripped c2 and s3 = stripped c3 in
  check_string "jobs=1 cold = jobs=4 warm" s1 s2;
  check_string "jobs=1 cold = jobs=4 cold" s1 s3;
  let metrics c =
    Metrics.expose ~strip_env:true (Instrument.Collector.events c)
  in
  check_string "stripped metrics jobs=1 cold = jobs=4 warm" (metrics c1)
    (metrics c2);
  check_string "stripped metrics jobs=1 cold = jobs=4 cold" (metrics c1)
    (metrics c3);
  (* the unstripped traces DO differ (cache events, pool env), so the
     strip is doing real work *)
  check "unstripped warm trace differs from cold" true
    (Export.to_jsonl (trace_of c1) <> Export.to_jsonl (trace_of c2));
  (* the summary totals and the metrics are two views of one stats
     table: every Det row reads the same in both *)
  let totals = Export.summary_totals (Instrument.Collector.summary c1) in
  let samples =
    String.split_on_char '\n' (metrics c1)
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
        let c = Instrument.Collector.create () in
        (match
           Model_def.synthesize ~sink:(Instrument.Collector.sink c) ~k:1
             ~timeout:1.0 ~jobs:2 ~oracle m
         with
        | Ok _ -> ()
        | Error e -> failwith (m.id ^ ": " ^ e));
        Trace.of_events ~label:m.id (Instrument.Collector.events c))
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
  let t = trace_of (observed_run ~jobs:2 ~cache:(Cache.create ()) ()) in
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

(* ----- rendering golden ----- *)

let symex_stats ?(timed_out = false) ~ticks ~paths () =
  {
    Eywa_symex.Exec.ticks_used = ticks;
    paths_completed = paths;
    paths_pruned = 3;
    paths_unknown = 1;
    solver_calls = 17;
    solver_decisions = 250;
    model_reuses = 9;
    timed_out;
  }

(* Every constructor the renderers knew when the golden texts were
   written, with repeated ids, an unclosed draw, a draw finished without
   a start, escapes in a message and wall-clock floats that do not
   print round. *)
let golden_events : Instrument.event list =
  [
    Cache_miss { stage = "draw"; key = "00000000deadbeef" };
    Cache_hit { stage = "draw"; key = "0123456789abcdef" };
    Cache_miss { stage = "draw"; key = "fedcba9876543210" };
    Draw_started { index = 0 };
    Draw_started { index = 1 };
    Compile_rejected
      {
        index = 1;
        stage = "typecheck";
        message = "expected \";\" before \"}\"\n\tline 3";
      };
    Symex_done { index = 0; stats = symex_stats ~ticks:100 ~paths:4 () };
    Draw_finished
      { index = 0; tests = 7; gen_seconds = 0.1; symex_seconds = 0.2 };
    Draw_finished
      { index = 1; tests = 0; gen_seconds = 0.2; symex_seconds = 1e-7 };
    Symex_done
      {
        index = 2;
        stats = symex_stats ~timed_out:true ~ticks:20_000_000 ~paths:4096 ();
      };
    Draw_started { index = 2 };
    Symex_done { index = 2; stats = symex_stats ~ticks:1000 ~paths:0 () };
    Draw_finished
      { index = 2; tests = 500; gen_seconds = 123.456; symex_seconds = 3.14159 };
    Draw_finished
      { index = 3; tests = 1; gen_seconds = 1. /. 3.; symex_seconds = 0.0 };
    Pool_merged
      {
        label = "draw";
        tasks = 4;
        computed = 3;
        jobs = 4;
        per_worker = [ 1; 0; 2; 0; 0; 0; 0; 0; 0; 0; 5 ];
        queue_wait_ticks = 12;
        refutations_reused = 21572;
      };
    Suite_aggregated { draws = 4; unique_tests = 480 };
    Draw_started { index = 0 };
    Compile_rejected { index = 0; stage = "oracle"; message = "" };
    Draw_finished
      { index = 0; tests = 0; gen_seconds = 2.5e-3; symex_seconds = 0.0 };
    Cache_hit { stage = "fuzz"; key = "0000000000000001" };
    Cache_miss { stage = "fuzz"; key = "0000000000000002" };
    Pool_merged
      {
        label = "fuzz";
        tasks = 3;
        computed = 2;
        jobs = 2;
        per_worker = [ 2; 0 ];
        queue_wait_ticks = 0;
        refutations_reused = 0;
      };
    Fuzz_done
      { index = 0; execs = 500; edges_seed = 10; edges_after = 13; new_tests = 2 };
    Fuzz_done
      { index = 2; execs = 0; edges_seed = 40; edges_after = 40; new_tests = 0 };
    Fuzz_done
      { index = 0; execs = 7; edges_seed = 9; edges_after = 5; new_tests = 0 };
    Fuzz_done
      { index = 3; execs = 64; edges_seed = 1; edges_after = 101; new_tests = 64 };
    Fuzz_aggregated { draws = 3; fuzz_tests = 2; combined_tests = 482 };
    Pool_merged
      {
        label = "difftest:GOLD";
        tasks = 482;
        computed = 482;
        jobs = 1;
        per_worker = [ 482 ];
        queue_wait_ticks = 0;
        refutations_reused = 0;
      };
    Difftest_done
      {
        label = "GOLD";
        total_tests = 482;
        disagreeing_tests = 5;
        tuples = 2;
        execs = 10;
      };
    Difftest_done
      {
        label = "GOLD";
        total_tests = 1;
        disagreeing_tests = 0;
        tuples = 0;
        execs = 123456;
      };
    Draw_started { index = 9 };
  ]

let read_golden name =
  In_channel.with_open_bin (Filename.concat "golden" name) In_channel.input_all

let test_rendering_golden () =
  let t = Trace.of_events ~label:"GOLD" golden_events in
  check_string "trace JSONL" (read_golden "render-gold.jsonl")
    (Export.to_jsonl t);
  check_string "Chrome trace"
    (read_golden "render-gold.chrome.json")
    (Export.chrome_trace t);
  let prom = read_golden "render-gold.prom" in
  check_string "metrics" prom (Metrics.expose golden_events);
  check_string "env-stripped metrics"
    (read_golden "render-gold-stripped.prom")
    (Metrics.expose ~strip_env:true golden_events);
  (* a failed cache write is an Env event of the trace and no metric
     counts it *)
  let events =
    golden_events
    @ [
        Cache_write_failed
          {
            stage = "fuzz";
            key = "0000000000000003";
            message = "F/cache: Not a directory";
          };
      ]
  in
  check_string "no metric counts a failed cache write" prom
    (Metrics.expose events);
  let failed (t : Trace.t) =
    List.filter
      (function
        | Trace.Event { name = "cache_write_failed"; _ } -> true | _ -> false)
      t.items
  in
  let t = Trace.of_events ~label:"GOLD" events in
  (match failed t with
  | [ Trace.Event { id; parent; cls; det; _ } ] ->
      check_string "under the root" "GOLD/cache/cache_write_failed" id;
      check "parent is the root" true (parent = Some "GOLD");
      check "classed Env" true (cls = Env);
      check "carries the error" true
        (List.assoc_opt "message" det = Some (Json.Str "F/cache: Not a directory"))
  | items -> Alcotest.failf "%d cache_write_failed events" (List.length items));
  check_int "strip drops it" 0 (List.length (failed (Trace.strip t)))

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

(* ----- instrument plumbing ----- *)

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
    Alcotest.test_case "rendering golden: traces and metrics" `Quick
      test_rendering_golden;
    qcheck_collector_cross_domain;
    Alcotest.test_case "Difftest_done.execs = report.observations" `Slow
      test_difftest_execs;
    Alcotest.test_case "fuzz_edges_gained and pool_batches in the summary"
      `Slow test_summary_fuzz_edges_gained;
  ]
