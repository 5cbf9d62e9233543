(* The PR-2 pipeline contract: the content-addressed cache is
   invisible to every observable output.

   - A warm-cache run is byte-identical to a cold run — including the
     wall-clock fields, which are stored in the artifact as hexfloats
     and replayed on a hit — at jobs=1 and jobs=4.
   - Cache keys cover every input a draw depends on: changing the
     seed, temperature, any budget, the sampling count, the alphabet,
     any prompt text or the symex engine version changes the key;
     changing nothing doesn't.
   - Draw artifacts round-trip exactly through the textual codec, and
     through a cache directory on disk picked up by a fresh process
     (modelled here as a fresh Cache on the same dir).
   - jobs=1 and jobs=4 populate byte-identical cache contents.
   - The collecting sink sees the same deterministic event stream
     either way, except for Cache_hit/Cache_miss themselves.
   - [run] explores each distinct compiled program once, yet every
     draw equals the per-index [run_draw] reference; only a duplicate's
     symex wall time differs (0.0).
   - A cache-dir entry that does not decode is a miss: counted and
     logged as one, recomputed and rewritten. *)

module Pipeline = Eywa_core.Pipeline
module Cache = Eywa_core.Cache
module Instrument = Eywa_core.Instrument
module Graph = Eywa_core.Graph
module Emodule = Eywa_core.Emodule
module Testcase = Eywa_core.Testcase
module Oracle = Eywa_core.Oracle
module Model_def = Eywa_models.Model_def
module Bgp_models = Eywa_models.Bgp_models
module Dns_models = Eywa_models.Dns_models

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let oracle = Eywa_llm.Gpt.oracle ()

(* Everything observable about a synthesis, wall-clock fields
   included: cache hits must replay even those byte-identically (they
   come out of the stored artifact, not a clock). *)
let full_fingerprint (s : Pipeline.t) =
  String.concat "\n"
    (Printf.sprintf "loc=%d/%d programs=%d" s.loc_min s.loc_max
       (List.length s.programs)
     :: List.map Testcase.to_string s.unique_tests
    @ List.concat_map
        (fun (r : Pipeline.model_result) ->
          Printf.sprintf "model %d loc=%d err=%s gen=%h sym=%h stats=%s"
            r.index r.c_loc
            (Option.value ~default:"-" r.compile_error)
            r.gen_seconds r.symex_seconds
            (match r.stats with
            | None -> "-"
            | Some st ->
                Printf.sprintf "%d/%d/%d/%d/%d/%d/%b/%d"
                  st.Eywa_symex.Exec.paths_completed
                  st.Eywa_symex.Exec.paths_pruned st.Eywa_symex.Exec.paths_unknown
                  st.Eywa_symex.Exec.solver_calls
                  st.Eywa_symex.Exec.solver_decisions st.Eywa_symex.Exec.model_reuses
                  st.Eywa_symex.Exec.timed_out st.Eywa_symex.Exec.ticks_used)
          :: List.map Testcase.to_string r.tests)
        s.results)

(* Same, minus the wall-clock fields — for comparing two independent
   computations (different runs measure different times). *)
let det_fingerprint (s : Pipeline.t) =
  String.concat "\n"
    (Printf.sprintf "loc=%d/%d programs=%d" s.loc_min s.loc_max
       (List.length s.programs)
     :: List.map Testcase.to_string s.unique_tests
    @ List.concat_map
        (fun (r : Pipeline.model_result) ->
          Printf.sprintf "model %d loc=%d err=%s" r.index r.c_loc
            (Option.value ~default:"-" r.compile_error)
          :: List.map Testcase.to_string r.tests)
        s.results)

let model = Bgp_models.rr

let config (m : Model_def.t) =
  {
    Pipeline.default_config with
    k = 4;
    timeout = 10.0;
    alphabet = m.alphabet;
  }

let run ?cache ?sink ~jobs (m : Model_def.t) =
  match
    Pipeline.run ?cache ?sink ~config:(config m) ~jobs ~oracle m.graph
      ~main:m.main
  with
  | Ok s -> s
  | Error e -> Alcotest.fail e

(* ----- warm cache = cold run, at jobs=1 and jobs=4 ----- *)

let test_warm_equals_cold () =
  List.iter
    (fun jobs ->
      let cache = Cache.create () in
      let cold = run ~cache ~jobs model in
      check_int
        (Printf.sprintf "jobs=%d: cold run misses every draw" jobs)
        4 (Cache.misses cache);
      let warm = run ~cache ~jobs model in
      check_int
        (Printf.sprintf "jobs=%d: warm run hits every draw" jobs)
        4 (Cache.hits cache);
      check_string
        (Printf.sprintf "jobs=%d: warm fingerprint = cold (incl. wall fields)"
           jobs)
        (full_fingerprint cold) (full_fingerprint warm);
      (* an uncached run is a separate computation: its wall-clock
         fields differ, everything deterministic is identical *)
      let uncached = run ~jobs model in
      check_string
        (Printf.sprintf "jobs=%d: cached = uncached" jobs)
        (det_fingerprint uncached) (det_fingerprint cold))
    [ 1; 4 ]

(* ----- key sensitivity ----- *)

let base_prompts = [ ("main", "record_applies"); ("module:m", "prompt text") ]

let key ?(oracle_name = "gpt") ?(prompts = base_prompts) ?(index = 0) cfg =
  Cache.Key.digest (Pipeline.draw_key ~oracle_name ~config:cfg ~prompts ~index)

let test_key_sensitivity () =
  let cfg = config model in
  let base = key cfg in
  check_string "same inputs, same key" base (key cfg);
  let differs what k' = check (what ^ " changes the key") true (base <> k') in
  differs "seed" (key { cfg with base_seed = cfg.base_seed + 1 });
  differs "temperature" (key { cfg with temperature = 0.7 });
  differs "tick budget" (key { cfg with timeout = cfg.timeout +. 1.0 });
  differs "max_paths" (key { cfg with max_paths = cfg.max_paths + 1 });
  differs "max_steps" (key { cfg with max_steps = cfg.max_steps + 1 });
  differs "max_solver_decisions"
    (key { cfg with max_solver_decisions = cfg.max_solver_decisions + 1 });
  differs "samples_per_path"
    (key { cfg with samples_per_path = cfg.samples_per_path + 1 });
  differs "alphabet" (key { cfg with alphabet = [ 'a'; 'b' ] });
  differs "draw index" (key ~index:1 cfg);
  differs "oracle name" (key ~oracle_name:"other" cfg);
  differs "prompt text"
    (key ~prompts:[ ("main", "record_applies"); ("module:m", "other") ] cfg);
  (* k is deliberately NOT in the key: draw i of a k=4 run must reuse
     draw i of a k=12 run (the fig10 sweep's prefix reuse) *)
  check_string "k does not change the key" base (key { cfg with k = 12 });
  (* index and base_seed fold into one effective seed *)
  check_string "seed+1/index+0 = seed+0/index+1"
    (key { cfg with base_seed = cfg.base_seed + 1 })
    (key ~index:1 cfg);
  (* the engine version: an artifact stored by an executor that
     explored differently must miss, not replay its suite *)
  let parts =
    Pipeline.draw_key_parts ~oracle_name:"gpt" ~config:cfg
      ~prompts:base_prompts ~index:0
  in
  check "symex engine version in the key" true
    (List.assoc_opt "symex" parts = Some "2");
  differs "symex engine version"
    (Cache.Key.digest
       (Cache.Key.v ~stage:"draw"
          (List.map
             (fun (n, v) -> if n = "symex" then (n, "1") else (n, v))
             parts)))

let key_seed_injective =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:200
       ~name:"distinct effective seeds give distinct key digests"
       QCheck2.Gen.(pair (int_range 0 10_000) (int_range 0 10_000))
       (fun (s1, s2) ->
         let cfg = config model in
         let k1 = key { cfg with base_seed = s1 }
         and k2 = key { cfg with base_seed = s2 } in
         if s1 = s2 then k1 = k2 else k1 <> k2))

(* ----- artifact codec ----- *)

let draw_roundtrip (m : Model_def.t) index =
  let f =
    match m.main with Emodule.Func f -> f | _ -> Alcotest.fail "main not Func"
  in
  let order =
    match Graph.synthesis_order m.graph ~main:m.main with
    | Ok o -> o
    | Error e -> Alcotest.fail e
  in
  let artifact =
    Pipeline.run_draw ~oracle ~config:(config m) m.graph ~main:f ~order index
  in
  let encoded = Pipeline.artifact_to_string artifact in
  match Pipeline.artifact_of_string m.graph ~main:f encoded with
  | Error e -> Alcotest.fail ("decode failed: " ^ e)
  | Ok decoded ->
      check
        (Printf.sprintf "%s draw %d round-trips exactly" m.id index)
        true (decoded = artifact);
      (* and the re-encoding is stable *)
      check_string "encode . decode . encode is the identity" encoded
        (Pipeline.artifact_to_string decoded)

let test_artifact_roundtrip () =
  draw_roundtrip Bgp_models.rr 0;
  draw_roundtrip Bgp_models.rr 2;
  (* a model with regex pipes, struct/enum inputs and string atoms *)
  draw_roundtrip Dns_models.cname 1;
  (* distinct values in every stats slot: real draws leave most
     counters at 0, which would hide two swapped columns *)
  let f = match model.main with Emodule.Func f -> f | _ -> assert false in
  let stats =
    {
      Eywa_symex.Exec.paths_completed = 1;
      paths_pruned = 2;
      paths_unknown = 3;
      solver_calls = 4;
      solver_decisions = 5;
      model_reuses = 6;
      timed_out = true;
      ticks_used = 7;
    }
  in
  let r =
    { Pipeline.index = 0; c_source = ""; c_loc = 0; compile_error = None;
      tests = []; stats = Some stats; gen_seconds = 0.; symex_seconds = 0. }
  in
  let decodes_to_r what s =
    match Pipeline.artifact_of_string model.graph ~main:f s with
    | Ok (r', None) -> check what true (r' = r)
    | Ok (_, Some _) -> Alcotest.fail "no program was stored"
    | Error e -> Alcotest.fail ("decode failed: " ^ e)
  in
  decodes_to_r "stats fields keep their slots"
    (Pipeline.artifact_to_string (r, None));
  (* the same draw as earlier releases wrote it: on-disk caches pin the
     stats slot order, so a reordered column list must fail here even
     though it would still round-trip *)
  decodes_to_r "stats slots match the on-disk format"
    "eywa-draw 3\nindex 0\ngen 0x0p+0\nsym 0x0p+0\nloc 0\nerr -\n\
     stats 1 2 3 4 5 6 1 7\nsrc \"\"\nprog -\ntests 0\n"

(* truncated payloads — a partial cache write, a corrupted file — must
   decode to Error, never raise *)
let test_artifact_truncation () =
  let m = model in
  let f =
    match m.main with Emodule.Func f -> f | _ -> Alcotest.fail "main not Func"
  in
  let order =
    match Graph.synthesis_order m.graph ~main:m.main with
    | Ok o -> o
    | Error e -> Alcotest.fail e
  in
  let encoded =
    Pipeline.artifact_to_string
      (Pipeline.run_draw ~oracle ~config:(config m) m.graph ~main:f ~order 0)
  in
  (* cutting only the final newline loses nothing, so stop short of it *)
  for cut = 0 to String.length encoded - 2 do
    match Pipeline.artifact_of_string m.graph ~main:f (String.sub encoded 0 cut) with
    | Error _ -> ()
    | Ok _ ->
        Alcotest.failf "truncation at byte %d of %d decoded successfully" cut
          (String.length encoded)
  done

(* ----- on-disk persistence ----- *)

let temp_dir () =
  let d =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "eywa-cache-test-%d" (Unix.getpid ()))
  in
  (* start clean: stale artifacts from a previous run would hide
     misses *)
  if Sys.file_exists d then
    Array.iter
      (fun f -> Sys.remove (Filename.concat d f))
      (Sys.readdir d);
  d

let test_disk_roundtrip () =
  let dir = temp_dir () in
  let c1 = Cache.create ~dir () in
  let cold = run ~cache:c1 ~jobs:1 model in
  check_int "cold run misses" 4 (Cache.misses c1);
  (* a fresh cache on the same directory models a fresh process *)
  let c2 = Cache.create ~dir () in
  let warm = run ~cache:c2 ~jobs:1 model in
  check_int "fresh cache on the same dir hits every draw" 4 (Cache.hits c2);
  check_string "disk round-trip is byte-identical" (full_fingerprint cold)
    (full_fingerprint warm)

(* ----- cache contents are jobs-invariant ----- *)

(* The stored artifact's only machine-dependent content is its "gen"
   and "sym" wall-seconds lines (quoted fields escape newlines, so no
   embedded text can masquerade as one); drop them so two independent
   runs can be compared. *)
let mask_wall_fields payload =
  String.concat "\n"
    (List.filter
       (fun line ->
         not
           (String.length line >= 4
           && (String.sub line 0 4 = "gen " || String.sub line 0 4 = "sym ")))
       (String.split_on_char '\n' payload))

let test_cache_contents_jobs_invariant () =
  let c1 = Cache.create () and c4 = Cache.create () in
  ignore (run ~cache:c1 ~jobs:1 model);
  ignore (run ~cache:c4 ~jobs:4 model);
  let contents c =
    List.map (fun (slot, payload) -> (slot, mask_wall_fields payload))
      (Cache.to_list c)
  in
  check "jobs=1 and jobs=4 store identical cache contents" true
    (contents c1 = contents c4)

(* ----- instrumentation ----- *)

let events_sans_cache c =
  List.filter
    (function
      | Instrument.Cache_hit _ | Instrument.Cache_miss _ -> false | _ -> true)
    (Instrument.Collector.events c)

(* Zero the machine/pool/cache-dependent event fields, for comparing
   two independent computations: Draw_finished wall seconds, and
   Pool_merged's env fields (computed depends on the cache state,
   jobs/per_worker/queue_wait_ticks on the pool size). *)
let norm_event = function
  | Instrument.Draw_finished { index; tests; _ } ->
      Instrument.Draw_finished
        { index; tests; gen_seconds = 0.0; symex_seconds = 0.0 }
  | Instrument.Pool_merged { label; tasks; _ } ->
      Instrument.Pool_merged
        {
          label;
          tasks;
          computed = 0;
          jobs = 0;
          per_worker = [];
          queue_wait_ticks = 0;
          refutations_reused = 0;
        }
  | e -> e

let test_event_stream_deterministic () =
  let collect ?cache ~jobs () =
    let c = Instrument.Collector.create () in
    ignore (run ?cache ~sink:(Instrument.Collector.sink c) ~jobs model);
    c
  in
  let c1 = collect ~jobs:1 () and c4 = collect ~jobs:4 () in
  check "event stream jobs=1 = jobs=4" true
    (List.map norm_event (Instrument.Collector.events c1)
    = List.map norm_event (Instrument.Collector.events c4));
  (* warm run: same events modulo Cache_hit/Cache_miss *)
  let cache = Cache.create () in
  let cold = collect ~cache ~jobs:1 () in
  let warm = collect ~cache ~jobs:1 () in
  check "hit replays the miss's draw events" true
    (List.map norm_event (events_sans_cache cold)
    = List.map norm_event (events_sans_cache warm));
  let s_cold = Instrument.Collector.summary cold
  and s_warm = Instrument.Collector.summary warm in
  let get = Instrument.Collector.get in
  check_int "cold misses" 4 (get s_cold Instrument.Stat.cache_misses);
  check_int "warm hits" 4 (get s_warm Instrument.Stat.cache_hits);
  check_int "same ticks either way"
    (get s_cold Instrument.Stat.symex_ticks)
    (get s_warm Instrument.Stat.symex_ticks)

let test_collector_summary () =
  let c = Instrument.Collector.create () in
  ignore (run ~sink:(Instrument.Collector.sink c) ~jobs:2 model);
  let s = Instrument.Collector.summary c in
  let get st = Instrument.Collector.get s st in
  check_int "one Draw_finished per draw" 4 (get Instrument.Stat.draws);
  check "symex did deterministic work" true
    (get Instrument.Stat.symex_ticks > 0);
  check "paths were completed" true (get Instrument.Stat.paths_completed > 0);
  check_int "suite aggregated once"
    (List.length (run ~jobs:1 model).unique_tests)
    (get Instrument.Stat.unique_tests);
  Instrument.Collector.clear c;
  check_int "clear empties the buffer" 0
    (List.length (Instrument.Collector.events c))

(* ----- each distinct program is explored once ----- *)

let order_of (m : Model_def.t) =
  match Graph.synthesis_order m.graph ~main:m.main with
  | Ok o -> o
  | Error e -> Alcotest.fail e

let main_of (m : Model_def.t) =
  match m.main with Emodule.Func f -> f | _ -> Alcotest.fail "main not Func"

(* Pair each result with its program: [programs] holds the programs of
   the results without a compile error, in index order. *)
let draws_of (s : Pipeline.t) =
  let programs = ref s.programs in
  List.map
    (fun (r : Pipeline.model_result) ->
      match (r.compile_error, !programs) with
      | None, p :: rest ->
          programs := rest;
          (r, Some p)
      | _ -> (r, None))
    s.results

(* A draw artifact minus its wall-clock fields. *)
let det_artifact ((r : Pipeline.model_result), program) =
  Pipeline.artifact_to_string
    ({ r with gen_seconds = 0.0; symex_seconds = 0.0 }, program)

(* RR and SERVER at k=10 repeat programs (first duplicate at index 3
   and 2): 6 distinct compiled programs each. *)
let dedup_models = [ Bgp_models.rr; Eywa_models.Smtp_models.server ]
let dedup_config m = { (config m) with k = 10 }

let reference (m : Model_def.t) =
  List.init 10
    (Pipeline.run_draw ~oracle ~config:(dedup_config m) m.graph ~main:(main_of m)
       ~order:(order_of m))

(* For each draw, the index of the first draw with an equal program. *)
let first_of draws =
  let arr = Array.of_list (List.map snd draws) in
  Array.mapi
    (fun i p ->
      match p with
      | None -> i
      | Some _ ->
          let rec find j = if arr.(j) = p then j else find (j + 1) in
          find 0)
    arr

let test_dedup_equals_run_draw () =
  List.iter
    (fun (m : Model_def.t) ->
      let ref_draws = reference m in
      let firsts = first_of ref_draws in
      check_int (m.id ^ ": 6 distinct programs in 10 draws") 6
        (List.length (List.sort_uniq compare (List.filter_map snd ref_draws)));
      let expected = List.map det_artifact ref_draws in
      List.iter
        (fun jobs ->
          let cache = Cache.create () in
          List.iter
            (fun (label, want_computed) ->
              let c = Instrument.Collector.create () in
              let s =
                match
                  Pipeline.run ~cache ~sink:(Instrument.Collector.sink c)
                    ~config:(dedup_config m) ~jobs ~oracle m.graph ~main:m.main
                with
                | Ok s -> s
                | Error e -> Alcotest.fail e
              in
              let what = Printf.sprintf "%s jobs=%d %s" m.id jobs label in
              check (what ^ ": run = per-index run_draw") true
                (List.map det_artifact (draws_of s) = expected);
              (match
                 Eywa_models.Protocol.report ~jobs ~sink:(Instrument.Collector.sink c)
                   ~version:Eywa_dns.Impls.Old m s
               with
              | Ok _ -> ()
              | Error e -> Alcotest.fail e);
              let events = Instrument.Collector.events c in
              (* the draw batch: k draws, the distinct programs explored;
                 the difftest batch: every unique test, each one judged *)
              let tests = List.length s.unique_tests in
              check (what ^ ": pool batches' tasks and computed") true
                (List.filter_map
                   (function
                     | Instrument.Pool_merged { label; tasks; computed; _ } ->
                         Some (label, tasks, computed)
                     | _ -> None)
                   events
                = [ ("draw", 10, want_computed); ("difftest:" ^ m.id, tests, tests) ]);
              let symex_seconds = Array.make 10 nan in
              let stats = Array.make 10 None in
              List.iter
                (function
                  | Instrument.Draw_finished { index; symex_seconds = t; _ } ->
                      symex_seconds.(index) <- t
                  | Instrument.Symex_done { index; stats = st } ->
                      stats.(index) <- Some st
                  | _ -> ())
                events;
              Array.iteri
                (fun i f ->
                  if f <> i then begin
                    check
                      (Printf.sprintf "%s: duplicate %d reports 0 symex s" what i)
                      true (symex_seconds.(i) = 0.0);
                    check
                      (Printf.sprintf "%s: duplicate %d has draw %d's stats" what i f)
                      true
                      (stats.(i) <> None && stats.(i) = stats.(f))
                  end)
                firsts)
            [ ("cold", 6); ("warm", 0) ])
        [ 1; 4 ])
    dedup_models

(* ----- a repeated draft's front and dedup are paid once ----- *)

let synthesize ?cache ?(oracle = oracle) ~config ~jobs (m : Model_def.t) =
  match Pipeline.run ?cache ~config ~jobs ~oracle m.graph ~main:m.main with
  | Ok s -> s
  | Error e -> Alcotest.fail e

(* [aggregate] keys only the first draw of each program, yet its suite
   is the dedup of every draw's tests; [program_ids] number the
   distinct programs in order of first occurrence. Cold and warm: the
   warm run decodes each program on its own, so none is shared
   physically and every one is compared by structure. *)
let test_aggregate_equals_full_dedup () =
  List.iter
    (fun (m : Model_def.t) ->
      let cache = Cache.create () in
      List.iter
        (fun label ->
          let s = synthesize ~cache ~config:(dedup_config m) ~jobs:1 m in
          let what = Printf.sprintf "%s %s" m.id label in
          let every =
            Testcase.dedup_keyed
              (List.concat_map (fun (r : Pipeline.model_result) -> r.tests) s.results)
          in
          check (what ^ ": unique tests = dedup of every draw's tests") true
            (List.map snd every = s.unique_tests);
          check (what ^ ": unique keys = their keys") true
            (List.map fst every = s.unique_keys);
          let programs = Array.of_list s.programs in
          let ids = Array.of_list s.program_ids in
          check_int (what ^ ": one id per compiled draw") (Array.length programs)
            (Array.length ids);
          let next = ref 0 in
          Array.iteri
            (fun j p ->
              let rec first i = if programs.(i) = p then i else first (i + 1) in
              let f = first 0 in
              if f = j then begin
                check_int (Printf.sprintf "%s: draw %d's new program takes the next id" what j)
                  !next ids.(j);
                incr next
              end
              else
                check_int (Printf.sprintf "%s: draw %d repeats draw %d's id" what j f)
                  ids.(f) ids.(j))
            programs;
          check_int (what ^ ": 6 distinct programs") 6 !next;
          let again = Pipeline.aggregate ~main:(main_of m) (draws_of s) in
          check_string (what ^ ": aggregate of the draws = run's suite")
            (det_fingerprint s) (det_fingerprint again);
          check (what ^ ": aggregate of the draws = run's ids") true
            (again.program_ids = s.program_ids))
        [ "cold"; "warm" ])
    dedup_models

let mentions needle s =
  let n = String.length needle in
  let rec go i = i + n <= String.length s && (String.sub s i n = needle || go (i + 1)) in
  go 0

(* [run] parses each distinct module text and compiles each distinct
   draft once, yet every draw gets what [front] gives its index (source,
   LoC, rejection and program), and the oracle gets exactly the requests
   [front] sends: a draw stops at its first text that does not parse.
   [expect] checks, on the reference's (error, source) pairs, that the
   case [inner] sets up occurs. *)
let check_shared_fronts (m : Model_def.t) ~k inner expect =
  let lock = Mutex.create () and requests = ref [] in
  let oracle =
    Oracle.make ~name:inner.Oracle.name (fun (r : Oracle.request) ->
        Mutex.protect lock (fun () -> requests := (r.seed, r.user) :: !requests);
        inner.Oracle.complete r)
  in
  let taken () =
    let r = List.sort compare !requests in
    requests := [];
    r
  in
  let config = { (config m) with k } in
  let front ((r : Pipeline.model_result), program) =
    (r.index, r.c_source, r.c_loc, r.compile_error, program)
  in
  let reference =
    List.init k (fun i ->
        front
          (Pipeline.front ~oracle ~config m.graph ~main:(main_of m) ~order:(order_of m) i))
  in
  let reference_requests = taken () in
  expect
    (List.filter_map
       (fun (_, source, _, err, _) -> Option.map (fun e -> (e, source)) err)
       reference);
  check (m.id ^ ": some draft compiles") true
    (List.exists (fun (_, _, _, _, p) -> p <> None) reference);
  List.iter
    (fun jobs ->
      let s = synthesize ~oracle ~config ~jobs m in
      check (Printf.sprintf "%s jobs=%d: run's fronts = per-index front" m.id jobs) true
        (List.map front (draws_of s) = reference);
      check (Printf.sprintf "%s jobs=%d: run's oracle requests = front's" m.id jobs) true
        (taken () = reference_requests))
    [ 1; 4 ]

(* At fail rate 0.3 the oracle sabotages about a third of RR's drafts
   with strtok, in the same text each time, so a shared rejection is
   checked. RMAP-PL prompts several Func modules per draw; garbling a
   quarter of the completions to one unparsable text makes drafts fail
   at different modules, each failing text repeated. *)
let test_shared_front_equals_front () =
  check_shared_fronts Bgp_models.rr ~k:30
    (Eywa_llm.Gpt.oracle ~config:{ Eywa_llm.Gpt.default_config with fail_rate = 0.3 } ())
    (fun rejected ->
      let strtok =
        List.filter_map
          (fun (e, source) ->
            if mentions "typecheck: " e && mentions "strtok" e then Some source else None)
          rejected
      in
      check "a strtok draft is rejected more than once" true
        (List.length (List.sort_uniq compare strtok) < List.length strtok));
  check_shared_fronts Bgp_models.rmap_pl ~k:20
    (Oracle.make ~name:"garbling" (fun (r : Oracle.request) ->
         if Hashtbl.hash (r.seed, r.user) mod 4 = 0 then "int ("
         else oracle.Oracle.complete r))
    (fun rejected ->
      let unparsed = List.filter (mentions "oracle: ") (List.map fst rejected) in
      check "drafts fail to parse at more than one module" true
        (List.length (List.sort_uniq compare unparsed) > 1))

let test_front_allocates_no_ids () =
  let m = Bgp_models.rr in
  let allocated =
    Eywa_solver.Term.with_fresh_ids (fun () ->
        ignore
          (Pipeline.front ~oracle ~config:(config m) m.graph ~main:(main_of m)
             ~order:(order_of m) 0);
        Eywa_solver.Term.var_count ())
  in
  check_int "front allocates no term ids" 0 allocated

(* ----- an entry that does not decode is a miss ----- *)

let read_file path = In_channel.with_open_bin path In_channel.input_all
let write_file path s = Out_channel.with_open_bin path (fun oc -> output_string oc s)

(* A cache-dir entry under a valid key whose payload does not decode
   (a torn write, an older artifact version) is a miss, not a hit: the
   draw is recomputed, counted and logged as a miss, and its entry
   rewritten with the valid artifact. *)
let test_garbled_entry_is_a_miss () =
  let m = model in
  let prompts = Pipeline.prompt_parts m.graph ~order:(order_of m) ~main:(main_of m) in
  let key = Pipeline.draw_key ~oracle_name:oracle.Oracle.name ~config:(config m) ~prompts ~index:1 in
  List.iter
    (fun jobs ->
      let dir = temp_dir () in
      let cold = run ~cache:(Cache.create ~dir ()) ~jobs m in
      let path = Filename.concat dir ("draw-" ^ Cache.Key.digest key ^ ".eywa") in
      let valid = read_file path in
      write_file path (Cache.Key.canonical key ^ "\ngarbage");
      let cache = Cache.create ~dir () in
      let c = Instrument.Collector.create () in
      let warm = run ~cache ~sink:(Instrument.Collector.sink c) ~jobs m in
      let what = Printf.sprintf "jobs=%d: " jobs in
      check_string (what ^ "run = cold run") (det_fingerprint cold) (det_fingerprint warm);
      check_int (what ^ "the garbled entry is a miss") 1 (Cache.misses cache);
      check_int (what ^ "the others hit") 3 (Cache.hits cache);
      check (what ^ "its probe logs Cache_miss") true
        (List.filter_map
           (function Instrument.Cache_miss { key; _ } -> Some key | _ -> None)
           (Instrument.Collector.events c)
        = [ Cache.Key.digest key ]);
      check_string (what ^ "the entry is rewritten with the valid artifact")
        (mask_wall_fields valid) (mask_wall_fields (read_file path)))
    [ 1; 4 ]

(* ----- the refutation table is exact and run-scoped ----- *)

module Term = Eywa_solver.Term

let refutations_reused events =
  List.fold_left
    (fun n -> function
      | Instrument.Pool_merged { label = "draw"; refutations_reused; _ } ->
          n + refutations_reused
      | _ -> n)
    0 events

let run_collected ~config ~jobs (m : Model_def.t) =
  let c = Instrument.Collector.create () in
  match
    Pipeline.run ~sink:(Instrument.Collector.sink c) ~config ~jobs ~oracle m.graph
      ~main:m.main
  with
  | Ok s -> (s, refutations_reused (Instrument.Collector.events c))
  | Error e -> Alcotest.fail e

(* The distinct programs of a synthesis, in order of first occurrence
   (the order [run] explores them in). *)
let distinct_programs (s : Pipeline.t) =
  List.filter_map
    (fun id -> List.assoc_opt id (List.combine s.program_ids s.programs))
    (List.sort_uniq compare s.program_ids)

let explore_program ~config (m : Model_def.t) program =
  let inputs, paths, stats = Pipeline.symex ~config m.graph ~main:(main_of m) program in
  (paths, stats, Pipeline.tests_of_paths ~config ~inputs paths)

(* Every model at k=3: exploring the distinct programs one after
   another in one intern scope, as a pool worker does, gives every
   path, stat and test that exploring each under a fresh scope (a fresh
   refutation table) gives, and [run] at jobs 1 and 4 — where different
   drafts share a worker's table — gives each draw that program's tests
   and stats. A 1 s tick budget keeps it quick and still cuts the
   heaviest draws off mid-exploration; [make stats-identity] checks the
   models' own budgets at jobs 1 and 4. *)
let test_refutation_table_exact () =
  let reused = ref 0 in
  List.iter
    (fun (m : Model_def.t) ->
      let config = Model_def.pipeline_config ~k:3 ~timeout:1.0 m in
      let s1, reused1 = run_collected ~config ~jobs:1 m in
      let s4, _ = run_collected ~config ~jobs:4 m in
      reused := !reused + reused1;
      let programs = distinct_programs s1 in
      let fresh =
        List.map (fun p -> Term.with_fresh_ids (fun () -> explore_program ~config m p)) programs
      in
      let shared =
        Term.with_fresh_ids (fun () ->
            List.map (fun p -> Term.with_fresh_vids (fun () -> explore_program ~config m p)) programs)
      in
      List.iteri
        (fun i ((paths, stats, tests), (paths', stats', tests')) ->
          let what = Printf.sprintf "%s program %d, one scope = fresh scopes: " m.id i in
          check (what ^ "paths") true (paths = paths');
          check (what ^ "stats") true (stats = stats');
          check (what ^ "tests") true (tests = tests'))
        (List.combine fresh shared);
      List.iter
        (fun (jobs, (s : Pipeline.t)) ->
          List.iter2
            (fun id ((r : Pipeline.model_result), _) ->
              let _, stats, tests = List.nth fresh id in
              let what = Printf.sprintf "%s jobs=%d draw %d = fresh scope: " m.id jobs r.index in
              check (what ^ "stats") true (r.stats = Some stats);
              check (what ^ "tests") true (r.tests = tests))
            s.program_ids
            (List.filter (fun (_, p) -> p <> None) (draws_of s)))
        [ (1, s1); (4, s4) ])
    Eywa_models.All_models.all;
  check "the drafts share refutations" true (!reused > 0)

(* No table outlives its run: two runs of one model in a row answer the
   same probes from it. *)
let test_refutation_table_run_scoped () =
  let m = Dns_models.auth in
  let config = Model_def.pipeline_config ~k:3 m in
  let _, first = run_collected ~config ~jobs:1 m in
  let _, second = run_collected ~config ~jobs:1 m in
  check "the first run reuses refutations" true (first > 0);
  check_int "the second run reuses as many" first second

(* ----- a cache directory is created with its parents ----- *)

let rec remove_tree path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let test_cache_dir_parents () =
  let root =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "eywa-cache-parents-%d" (Unix.getpid ()))
  in
  remove_tree root;
  let dir = Filename.concat root "cache" in
  let cold = run ~cache:(Cache.create ~dir ()) ~jobs:1 model in
  check "the run writes its draw files" true
    (Sys.file_exists dir
    && Array.exists (String.starts_with ~prefix:"draw-") (Sys.readdir dir));
  let cache = Cache.create ~dir () in
  let warm = run ~cache ~jobs:1 model in
  check_int "a rerun hits every draw" 4 (Cache.hits cache);
  check_string "and replays the run" (full_fingerprint cold) (full_fingerprint warm);
  remove_tree root

(* A disk write that fails is counted and reported as an event, leaves
   no [.tmp] file behind, and the entry is still served from memory. *)
let test_cache_write_failures () =
  let root =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "eywa-cache-failures-%d" (Unix.getpid ()))
  in
  remove_tree root;
  Sys.mkdir root 0o755;
  let key = Cache.Key.v ~stage:"draw" [ ("input", "1") ] in
  let c = Instrument.Collector.create () in
  let sink = Instrument.Collector.sink c in
  (* the directory cannot be made: its parent is a regular file *)
  let file = Filename.concat root "file" in
  Out_channel.with_open_bin file (fun oc -> output_string oc "x");
  let under_file = Cache.create ~dir:(Filename.concat file "cache") () in
  Cache.store ~sink under_file key "payload";
  check_int "the failed write is counted" 1 (Cache.write_failures under_file);
  check "the entry is served from memory" true
    (Cache.lookup under_file key ~decode:Result.ok = Some "payload");
  (* the entry's path is a directory: the .tmp is written, the rename
     fails *)
  let dir = Filename.concat root "cache" in
  let entry = Filename.concat dir ("draw-" ^ Cache.Key.digest key ^ ".eywa") in
  Sys.mkdir dir 0o755;
  Sys.mkdir entry 0o755;
  let blocked = Cache.create ~dir () in
  Cache.store ~sink blocked key "payload";
  check_int "a failed rename is counted" 1 (Cache.write_failures blocked);
  check "its .tmp file is removed" false (Sys.file_exists (entry ^ ".tmp"));
  check_int "one event per failed write" 2
    (List.length
       (List.filter
          (function
            | Instrument.Cache_write_failed { stage = "draw"; key = k; message } ->
                k = Cache.Key.digest key && message <> ""
            | _ -> false)
          (Instrument.Collector.events c)));
  let ok = Cache.create ~dir:(Filename.concat root "ok") () in
  Cache.store ~sink ok key "payload";
  check_int "a write that succeeds is not counted" 0 (Cache.write_failures ok);
  check_int "and emits nothing" 2 (List.length (Instrument.Collector.events c));
  remove_tree root

let suite =
  [
    Alcotest.test_case "warm cache = cold run (jobs 1 and 4)" `Slow
      test_warm_equals_cold;
    Alcotest.test_case "cache key covers every draw input" `Quick
      test_key_sensitivity;
    key_seed_injective;
    Alcotest.test_case "draw artifacts round-trip the codec" `Slow
      test_artifact_roundtrip;
    Alcotest.test_case "truncated draw artifacts decode to Error" `Slow
      test_artifact_truncation;
    Alcotest.test_case "on-disk cache round-trips across processes" `Slow
      test_disk_roundtrip;
    Alcotest.test_case "cache contents: jobs=1 = jobs=4" `Slow
      test_cache_contents_jobs_invariant;
    Alcotest.test_case "event stream is jobs- and cache-invariant" `Slow
      test_event_stream_deterministic;
    Alcotest.test_case "collector summary counts stages" `Slow
      test_collector_summary;
    Alcotest.test_case "run explores each distinct program once" `Slow
      test_dedup_equals_run_draw;
    Alcotest.test_case "a draw's front allocates no term ids" `Quick
      test_front_allocates_no_ids;
    Alcotest.test_case "aggregate = dedup of every draw's tests" `Slow
      test_aggregate_equals_full_dedup;
    Alcotest.test_case "run's shared fronts = per-index front" `Slow
      test_shared_front_equals_front;
    Alcotest.test_case "refutation table: one scope = fresh scopes, jobs 1 and 4" `Slow
      test_refutation_table_exact;
    Alcotest.test_case "refutation table: no table outlives its run" `Slow
      test_refutation_table_run_scoped;
    Alcotest.test_case "a cache directory is created with its parents" `Slow
      test_cache_dir_parents;
    Alcotest.test_case "a failed cache write is counted and reported" `Quick
      test_cache_write_failures;
    Alcotest.test_case "a cache entry that does not decode is a miss" `Slow
      test_garbled_entry_is_a_miss;
  ]
