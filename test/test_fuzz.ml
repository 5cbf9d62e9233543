(* The PR-3 fuzz-stage contract, mirroring test_pipeline.ml:

   - A fuzz run is byte-identical at jobs=1 and jobs=4, and on a warm
     cache vs a cold one — the budget is a deterministic tick count and
     the artifact stores no wall-clock fields.
   - The fuzz cache key extends the draw key with every fuzz input
     (seed, budget, keeper cap, mutator set, fuel, engine version)
     and, like the draw key, excludes k.
   - A draw stops fuzzing once it covers every static edge.
   - Fuzz artifacts round-trip the codec exactly; truncated or
     malformed payloads decode to [Error], never an exception.
   - Dynamic edge coverage is a subset of the static edge universe,
     and edge labels are pinned for a fixed program; a coverage map is
     bound to one program.
   - Mutants preserve the shape of the input vector (same constructor
     tree, string lengths, array sizes, struct fields).
   - [Fuzz.fuzz_draw] equals the reference loop kept below (no memo,
     no prepared runner, the old copying mutators) artifact for
     artifact, and [Mutate.apply] equals the old mutators mutant for
     mutant and rng draw for rng draw.
   - A draw without seeds runs nothing; the memo's hash sees every
     leaf of a many-record input.
   - A draw whose symex is complete ([Pipeline.complete]) skips its
     mutation loop, and its artifact is the one the full loop gives;
     each condition of completeness, forced, makes the loop run.
   - A cache-dir entry that does not decode is a miss: counted and
     logged as one, fuzzed again and rewritten.
   - Regression: a runtime error escaping a nested call must surface
     as [Error], not corrupt the interpreter's scope stack. *)

module Fuzz = Eywa_fuzz.Fuzz
module Mutate = Eywa_fuzz.Mutate
module Rng = Eywa_fuzz.Rng
module Coverage = Eywa_fuzz.Coverage
module Memo = Eywa_fuzz.Memo
module Pipeline = Eywa_core.Pipeline
module Cache = Eywa_core.Cache
module Harness = Eywa_core.Harness
module Testcase = Eywa_core.Testcase
module Model_def = Eywa_models.Model_def
module Dns_models = Eywa_models.Dns_models
module Interp = Eywa_minic.Interp
module Parser = Eywa_minic.Parser
module Value = Eywa_minic.Value

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let oracle = Eywa_llm.Gpt.oracle ()

(* LOOP at smoke scale: a model where fuzzing genuinely finds edges
   the symex seed suite missed, so the determinism checks cover a run
   with non-trivial keepers. *)
let model = Dns_models.loop
let k = 3
let timeout (m : Model_def.t) = Float.max 1.0 (m.timeout *. 0.1)

let fuzz_config =
  { Fuzz.default_config with budget = 250; max_new_tests = 16 }

let synth ?cache ?jobs (m : Model_def.t) =
  match
    Model_def.synthesize ?cache ~k ~timeout:(timeout m) ?jobs ~oracle m
  with
  | Ok s -> s
  | Error e -> Alcotest.fail e

let fuzz ?cache ?jobs (m : Model_def.t) s =
  match
    Model_def.fuzz ?cache ~fuzz_config ~k ~timeout:(timeout m) ?jobs ~oracle m
      s
  with
  | Ok f -> f
  | Error e -> Alcotest.fail e

(* the synthesis the fuzz tests hang off; computed once *)
let seed_suite = lazy (synth model)

(* Everything observable about a fuzz run. There are no wall-clock
   fields to mask: any two runs with the same inputs must agree on
   every byte of this. *)
let fingerprint (f : Fuzz.t) =
  String.concat "\n"
    (List.concat_map
       (fun (d : Fuzz.draw_fuzz) ->
         Printf.sprintf "draw %d execs=%d edges=%d/%d/%d" d.f_index d.execs
           d.edges_seed d.edges_after d.edges_static
         :: List.map Testcase.to_string d.new_tests)
       f.per_draw
    @ ("fuzz:" :: List.map Testcase.to_string f.fuzz_tests)
    @ ("combined:" :: List.map Testcase.to_string f.combined_tests))

(* ----- jobs invariance ----- *)

let test_jobs_invariant () =
  let s = Lazy.force seed_suite in
  let f1 = fuzz ~jobs:1 model s and f4 = fuzz ~jobs:4 model s in
  check_string "fuzz output jobs=1 = jobs=4" (fingerprint f1) (fingerprint f4);
  (* the run is non-trivial: fuzzing found edges symex missed *)
  check "fuzzing found new tests" true (List.length f1.fuzz_tests > 0);
  check "edge coverage strictly increased on some draw" true
    (List.exists
       (fun (d : Fuzz.draw_fuzz) -> d.edges_after > d.edges_seed)
       f1.per_draw);
  check_int "combined = symex + fuzz"
    (List.length s.Pipeline.unique_tests + List.length f1.fuzz_tests)
    (List.length f1.combined_tests)

(* ----- warm cache = cold run ----- *)

let test_warm_equals_cold () =
  List.iter
    (fun jobs ->
      let s = Lazy.force seed_suite in
      let cache = Cache.create () in
      let cold = fuzz ~cache ~jobs model s in
      check_int
        (Printf.sprintf "jobs=%d: cold run misses every compiled draw" jobs)
        (List.length cold.per_draw) (Cache.misses cache);
      let warm = fuzz ~cache ~jobs model s in
      check_int
        (Printf.sprintf "jobs=%d: warm run hits every compiled draw" jobs)
        (List.length warm.per_draw) (Cache.hits cache);
      check_string
        (Printf.sprintf "jobs=%d: warm fingerprint = cold" jobs)
        (fingerprint cold) (fingerprint warm);
      let uncached = fuzz ~jobs model s in
      check_string
        (Printf.sprintf "jobs=%d: cached = uncached" jobs)
        (fingerprint uncached) (fingerprint cold))
    [ 1; 4 ]

(* ----- key sensitivity ----- *)

let base_prompts = [ ("main", "loop_count"); ("module:m", "prompt text") ]

let key ?(pipeline = Model_def.pipeline_config ~k model)
    ?(config = fuzz_config) ?(index = 0) () =
  Cache.Key.digest
    (Fuzz.fuzz_key ~oracle_name:"gpt" ~pipeline ~config ~prompts:base_prompts
       ~index)

let test_key_sensitivity () =
  let base = key () in
  check_string "same inputs, same key" base (key ());
  let differs what k' = check (what ^ " changes the key") true (base <> k') in
  let cfg = fuzz_config in
  differs "fuzz seed" (key ~config:{ cfg with fuzz_seed = cfg.fuzz_seed + 1 } ());
  differs "budget" (key ~config:{ cfg with budget = cfg.budget + 1 } ());
  differs "keeper cap"
    (key ~config:{ cfg with max_new_tests = cfg.max_new_tests + 1 } ());
  differs "mutator set" (key ~config:{ cfg with mutators = [ Mutate.Byte ] } ());
  differs "fuel" (key ~config:{ cfg with fuel = cfg.fuel + 1 } ());
  differs "draw index" (key ~index:1 ());
  let pipeline = Model_def.pipeline_config ~k model in
  differs "pipeline seed"
    (key ~pipeline:{ pipeline with base_seed = pipeline.base_seed + 1 } ());
  differs "pipeline alphabet"
    (key ~pipeline:{ pipeline with alphabet = [ 'z' ] } ());
  (* k stays out of the key, like the draw key: draw i's fuzz artifact
     is reusable across k sweeps. (Unlike the draw key, fuzz_seed+1 is
     NOT equivalent to index+1: index also shifts the underlying
     draw's effective seed inside [draw_key_parts].) *)
  check_string "k does not change the key" base
    (key ~pipeline:{ pipeline with k = 12 } ());
  (* the engine version: an artifact stored by a fuzz loop that stopped
     elsewhere must miss, not replay its exec count *)
  let parts =
    Pipeline.draw_key_parts ~oracle_name:"gpt" ~config:pipeline
      ~prompts:base_prompts ~index:0
  in
  check "fuzz engine version in the key" true
    (Cache.Key.equal
       (Fuzz.fuzz_key ~oracle_name:"gpt" ~pipeline ~config:cfg
          ~prompts:base_prompts ~index:0)
       (Cache.Key.v ~stage:"fuzz"
           (parts
           @ [
               ("fuzz_seed", string_of_int cfg.fuzz_seed);
               ("fuzz_budget", string_of_int cfg.budget);
               ("fuzz_max_new_tests", string_of_int cfg.max_new_tests);
               ( "fuzz_mutators",
                 String.concat "," (List.map Mutate.kind_to_string cfg.mutators) );
               ("fuzz_fuel", string_of_int cfg.fuel);
               ("fuzz", "2");
             ])))

(* ----- dynamic coverage is a subset of the static universe ----- *)

let test_dynamic_subset_static () =
  let s = Lazy.force seed_suite in
  let natives = Harness.natives_concrete model.Model_def.graph s.Pipeline.main in
  check "synthesis compiled at least one program" true (s.programs <> []);
  List.iter
    (fun program ->
      let static = Interp.static_edges program in
      check "static universe is non-empty" true (static <> []);
      let cov = Interp.coverage_create () in
      List.iter
        (fun (t : Testcase.t) ->
          ignore
            (Coverage.execute ~natives ~main:s.Pipeline.main ~coverage:cov
               program t.Testcase.inputs))
        s.Pipeline.unique_tests;
      check "executions hit some edges" true (Coverage.count cov > 0);
      List.iter
        (fun edge ->
          check
            (Printf.sprintf "dynamic edge %S is statically enumerated" edge)
            true (List.mem edge static))
        (Interp.covered cov))
    s.Pipeline.programs

(* ----- a draw stops once every static edge is covered ----- *)

(* Dynamic edges are static edges, so a draw that has covered every
   static edge can keep nothing more: it must stop there. Any draw that
   spent less than its budget did so because it saturated the static
   universe or reached its keeper cap. *)
let test_stops_at_static_edges () =
  let check_draws what (config : Fuzz.config) (f : Fuzz.t) =
    List.iter
      (fun (d : Fuzz.draw_fuzz) ->
        let what = Printf.sprintf "%s draw %d" what d.f_index in
        check (what ^ ": execs within budget") true (d.execs <= config.budget);
        if d.execs < config.budget then
          check (what ^ ": stopped early for a reason") true
            (d.edges_after = d.edges_static
            || List.length d.new_tests = config.max_new_tests))
      f.per_draw
  in
  (* CNAME's symex seeds cover every static edge of each draw *)
  let cname = Dns_models.cname in
  let s = synth cname in
  let f =
    match
      Model_def.fuzz ~k ~timeout:(timeout cname) ~jobs:1 ~oracle cname s
    with
    | Ok f -> f
    | Error e -> Alcotest.fail e
  in
  let saturated =
    List.filter
      (fun (d : Fuzz.draw_fuzz) -> d.edges_seed = d.edges_static)
      f.per_draw
  in
  check "some CNAME draw's seeds saturate" true (saturated <> []);
  List.iter
    (fun (d : Fuzz.draw_fuzz) ->
      check_int (Printf.sprintf "saturated draw %d spends no execs" d.f_index) 0
        d.execs;
      check_int (Printf.sprintf "saturated draw %d keeps nothing" d.f_index) 0
        (List.length d.new_tests))
    saturated;
  check_draws "CNAME" Fuzz.default_config f;
  check_draws "LOOP" fuzz_config (fuzz model (Lazy.force seed_suite))

(* ----- a symbolically complete draw skips its mutation loop ----- *)

(* Synthesize [m] under [pipeline] and fuzz it at the default fuzz
   config. Each compiled draw comes back with its completeness and its
   staged artifact; [against_full] says which draws to check against
   the artifact the full loop gives on their seeds. *)
let staged_draws ~against_full (m : Model_def.t) (pipeline : Pipeline.config) =
  let s =
    match Pipeline.run ~config:pipeline ~jobs:1 ~oracle m.graph ~main:m.main with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  let config = Fuzz.default_config in
  let f =
    match
      Fuzz.fuzz_of_seeds ~config ~jobs:1 ~oracle_name:oracle.Eywa_core.Oracle.name
        ~pipeline m.graph s
    with
    | Ok f -> f
    | Error e -> Alcotest.fail e
  in
  let natives = Harness.natives_concrete m.graph s.Pipeline.main in
  let compiled =
    List.filter (fun (r : Pipeline.model_result) -> r.compile_error = None) s.results
  in
  List.map2
    (fun ((r : Pipeline.model_result), program) (d : Fuzz.draw_fuzz) ->
      let complete = Pipeline.complete pipeline r in
      if against_full complete then
        check_string
          (Printf.sprintf "%s draw %d: staged artifact = full loop" m.id r.index)
          (Fuzz.artifact_to_string
             (Fuzz.fuzz_draw ~natives ~main:s.Pipeline.main ~config
                ~alphabet:pipeline.Pipeline.alphabet ~index:r.index program r.tests))
          (Fuzz.artifact_to_string d);
      (complete, d))
    (List.combine compiled s.Pipeline.programs)
    f.per_draw

(* The premise of the skip: no mutant of a complete draw's seeds, in
   bounds or out, covers an edge the seeds miss, so the full loop keeps
   nothing and spends the artifact's [execs]. Pinned on every complete
   k=3 draw of the models that have one at seed 42: all but FULLLOOKUP
   and LOOP, whose draws all stop at a budget. An incomplete draw runs
   [Fuzz.fuzz_draw]'s own two phases; the test below checks it. *)
let test_complete_draws_skip_nothing () =
  List.iter
    (fun (m : Model_def.t) ->
      if m.id <> "FULLLOOKUP" && m.id <> "LOOP" then
        let draws =
          staged_draws ~against_full:Fun.id m (Model_def.pipeline_config ~k m)
        in
        check (m.id ^ " has a complete draw") true (List.exists fst draws))
    Eywa_models.All_models.all

(* Each condition of [Pipeline.complete] can be forced on SERVER, whose
   k=3 draws are all complete: under each config no draw is complete
   and the staged artifact is the full loop's. Where the cut draw has
   a seed the loop runs and keeps a test the cut exploration missed;
   without a solver decision no path completes, so no draw has one. *)
let test_incomplete_draws_mutate () =
  let m = Eywa_models.Smtp_models.server in
  let base = Model_def.pipeline_config ~k m in
  List.iter
    (fun (what, pipeline, keeps) ->
      let draws = staged_draws ~against_full:(fun _ -> true) m pipeline in
      check (what ^ ": no draw is complete") false (List.exists fst draws);
      check (what ^ ": the loop kept a test") keeps
        (List.exists (fun (_, (d : Fuzz.draw_fuzz)) -> d.new_tests <> []) draws))
    [
      ("tiny timeout", { base with timeout = 0.003 }, true);
      ("small max_paths", { base with max_paths = 4 }, true);
      ("small max_steps", { base with max_steps = 10 }, true);
      ("no solver decisions", { base with max_solver_decisions = 0 }, false);
      ("few solver decisions", { base with max_solver_decisions = 2 }, true);
    ]

(* ----- one seed phase per program ----- *)

(* The per-draw reference [fuzz_of_seeds] must agree with: each draw
   replays its own seeds, then a complete one gets the artifact of a
   loop that keeps nothing and any other its full loop. The first is
   [fuzz_draw] at budget 0 (the seeds alone) with the budget's execs
   put back when the loop would start. *)
let per_draw_reference ~pipeline ~(config : Fuzz.config) (m : Model_def.t)
    (s : Pipeline.t) =
  let natives = Harness.natives_concrete m.graph s.Pipeline.main in
  let compiled =
    List.filter (fun (r : Pipeline.model_result) -> r.compile_error = None) s.results
  in
  List.map2
    (fun (r : Pipeline.model_result) program ->
      let go config =
        Fuzz.fuzz_draw ~natives ~main:s.Pipeline.main ~config
          ~alphabet:pipeline.Pipeline.alphabet ~index:r.index program r.tests
      in
      if Pipeline.complete pipeline r then
        let d = go { config with budget = 0 } in
        let loops =
          config.budget > 0 && config.max_new_tests > 0 && r.tests <> []
          && d.edges_seed < d.edges_static
        in
        { d with execs = (if loops then config.budget else 0) }
      else go config)
    compiled s.Pipeline.programs

(* [fuzz_of_seeds] replays a program's seeds once for all its draws,
   yet gives each draw the per-draw reference's artifact: at jobs 1
   and 4, and with a cache that holds only the first draw of each
   program, so a repeated program's draws are partly replayed from the
   cache and partly computed. LOOP at k=10 (at this file's small
   budget) has several incomplete draws of one program, each mutating
   its own copy of the seeded corpus; RR at k=30 has many complete
   draws per program. The fuzz pool counts the compiled draws
   as its tasks and the programs it seeded as computed. *)
let test_shared_seeding_equals_per_draw () =
  List.iter
    (fun ((m : Model_def.t), k, complete) ->
      let pipeline = Model_def.pipeline_config ~k ~timeout:(timeout m) m in
      let s =
        match Pipeline.run ~config:pipeline ~jobs:1 ~oracle m.graph ~main:m.main with
        | Ok s -> s
        | Error e -> Alcotest.fail e
      in
      let config = Fuzz.default_config in
      let expected = per_draw_reference ~pipeline ~config m s in
      let draws =
        List.combine s.Pipeline.program_ids
          (List.filter (fun (r : Pipeline.model_result) -> r.compile_error = None) s.results)
      in
      check (m.id ^ ": two draws of one kind run one program") true
        (List.exists
           (fun (id, (r : Pipeline.model_result)) ->
             Pipeline.complete pipeline r = complete
             && List.exists
                  (fun (id', (r' : Pipeline.model_result)) -> id' = id && r'.index > r.index)
                  draws)
           draws);
      let distinct l = List.length (List.sort_uniq compare l) in
      let first_of_program index =
        let id = fst (List.find (fun (_, (r : Pipeline.model_result)) -> r.index = index) draws) in
        (snd (List.find (fun (id', _) -> id' = id) draws)).Pipeline.index = index
      in
      let order =
        match Eywa_core.Graph.synthesis_order m.graph ~main:m.main with
        | Ok o -> o
        | Error e -> Alcotest.fail e
      in
      let prompts = Pipeline.prompt_parts m.graph ~order ~main:s.Pipeline.main in
      let key index =
        Fuzz.fuzz_key ~oracle_name:oracle.Eywa_core.Oracle.name ~pipeline ~config
          ~prompts ~index
      in
      List.iter
        (fun jobs ->
          List.iter
            (fun (label, cached) ->
              let cache = Cache.create () in
              List.iter2
                (fun (_, (r : Pipeline.model_result)) d ->
                  if cached r.index then
                    Cache.store cache (key r.index) (Fuzz.artifact_to_string d))
                draws expected;
              let c = Eywa_core.Instrument.Collector.create () in
              let f =
                match
                  Fuzz.fuzz_of_seeds ~cache ~sink:(Eywa_core.Instrument.Collector.sink c)
                    ~config ~jobs ~oracle_name:oracle.Eywa_core.Oracle.name ~pipeline
                    m.graph s
                with
                | Ok f -> f
                | Error e -> Alcotest.fail e
              in
              let what = Printf.sprintf "%s k=%d jobs=%d %s" m.id k jobs label in
              check (what ^ ": artifacts = per-draw reference") true
                (List.map Fuzz.artifact_to_string f.per_draw
                = List.map Fuzz.artifact_to_string expected);
              let missed =
                List.filter (fun (_, (r : Pipeline.model_result)) -> not (cached r.index)) draws
              in
              let tests = List.length f.fuzz_tests in
              ignore
                (Eywa_difftest.Difftest.run ~jobs
                   ~sink:(Eywa_core.Instrument.Collector.sink c) ~label:m.id
                   ~impls:[ ("a", []); ("b", []) ] ~render:(fun () -> [])
                   ~prepare:(fun _ -> Some (fun _ -> ())) f.fuzz_tests);
              (* the fuzz batch: every compiled draw, the programs seeded;
                 the difftest batch: every test, each one judged *)
              check (what ^ ": pool batches' tasks and computed") true
                (List.filter_map
                   (function
                     | Eywa_core.Instrument.Pool_merged { label; tasks; computed; _ } ->
                         Some (label, tasks, computed)
                     | _ -> None)
                   (Eywa_core.Instrument.Collector.events c)
                = [
                    ("fuzz", List.length draws, distinct (List.map fst missed));
                    ("difftest:" ^ m.id, tests, tests);
                  ]))
            [ ("cold", fun _ -> false); ("first draws cached", first_of_program) ])
        [ 1; 4 ])
    [ (Dns_models.loop, 10, false); (Eywa_models.Bgp_models.rr, 30, true) ]

(* ----- an entry that does not decode is a miss ----- *)

(* A cache-dir fuzz entry under a valid key whose payload does not
   decode is a miss, not a hit: the draw is fuzzed again, counted and
   logged as a miss, and its entry rewritten with the valid artifact. *)
let test_garbled_entry_is_a_miss () =
  let s = Lazy.force seed_suite in
  let order =
    match Eywa_core.Graph.synthesis_order model.graph ~main:model.main with
    | Ok o -> o
    | Error e -> Alcotest.fail e
  in
  let index =
    (List.find (fun (r : Pipeline.model_result) -> r.compile_error = None) s.results).index
  in
  let key =
    Fuzz.fuzz_key ~oracle_name:oracle.Eywa_core.Oracle.name
      ~pipeline:(Model_def.pipeline_config ~k ~timeout:(timeout model) model)
      ~config:fuzz_config
      ~prompts:(Pipeline.prompt_parts model.graph ~order ~main:s.main)
      ~index
  in
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "eywa-fuzz-cache-test-%d" (Unix.getpid ()))
  in
  let path = Filename.concat dir ("fuzz-" ^ Cache.Key.digest key ^ ".eywa") in
  let read () = In_channel.with_open_bin path In_channel.input_all in
  List.iter
    (fun jobs ->
      if Sys.file_exists dir then
        Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      let cold = fuzz ~cache:(Cache.create ~dir ()) ~jobs model s in
      let valid = read () in
      Out_channel.with_open_bin path (fun oc ->
          output_string oc (Cache.Key.canonical key ^ "\ngarbage"));
      let cache = Cache.create ~dir () in
      let c = Eywa_core.Instrument.Collector.create () in
      let warm =
        match
          Model_def.fuzz ~cache ~sink:(Eywa_core.Instrument.Collector.sink c)
            ~fuzz_config ~k ~timeout:(timeout model) ~jobs ~oracle model s
        with
        | Ok f -> f
        | Error e -> Alcotest.fail e
      in
      let what = Printf.sprintf "jobs=%d: " jobs in
      check_string (what ^ "run = cold run") (fingerprint cold) (fingerprint warm);
      check_int (what ^ "the garbled entry is a miss") 1 (Cache.misses cache);
      check_int (what ^ "the others hit") (List.length cold.per_draw - 1) (Cache.hits cache);
      check (what ^ "its probe logs Cache_miss") true
        (List.filter_map
           (function Eywa_core.Instrument.Cache_miss { key; _ } -> Some key | _ -> None)
           (Eywa_core.Instrument.Collector.events c)
        = [ Cache.Key.digest key ]);
      check_string (what ^ "the entry is rewritten with the valid artifact") valid (read ()))
    [ 1; 4 ]

(* ----- edge labels and coverage maps ----- *)

let edges_src =
  {|
    int f(int x) {
      int y = 0;
      if (x > 0) {
        while (y < x) { y = y + 1; }
      } else {
        for (int i = 0; i < 2; i++) { if (i == 1) { y = 7; } }
      }
      return y;
    }
    int g(int a) { if (a) { return 1; } return 0; }
  |}

let parse src =
  match Parser.parse_result src with
  | Ok p -> p
  | Error e -> Alcotest.failf "parse failed: %s" e

let check_labels = Alcotest.(check (list string))

let test_edge_labels () =
  let p = parse edges_src in
  check_labels "static edges, in edge-id order"
    [
      "f.1#if:t"; "f.1#if:f"; "f.1t.0#wh:t"; "f.1t.0#wh:f"; "f.1e.0#for:t";
      "f.1e.0#for:f"; "f.1e.0b.0#if:t"; "f.1e.0b.0#if:f"; "g.0#if:t"; "g.0#if:f";
    ]
    (Interp.static_edges p);
  let covered x =
    let cov = Interp.coverage_create () in
    ignore (Interp.run ~coverage:cov p "f" [ Value.Vint x ]);
    Interp.covered cov
  in
  check_labels "then side" [ "f.1#if:t"; "f.1t.0#wh:t"; "f.1t.0#wh:f" ] (covered 2);
  check_labels "else side"
    [ "f.1#if:f"; "f.1e.0#for:t"; "f.1e.0#for:f"; "f.1e.0b.0#if:t"; "f.1e.0b.0#if:f" ]
    (covered 0)

let test_coverage_one_program () =
  let p = parse edges_src and q = parse edges_src in
  let cov = Interp.coverage_create () in
  ignore (Interp.run ~coverage:cov p "f" [ Value.Vint 1 ]);
  ignore (Interp.run ~coverage:cov p "f" [ Value.Vint 0 ]);
  check_int "one map accumulates over runs" 8 (Coverage.count cov);
  (* q is equal to p but is another program: its edge ids are its own *)
  check "reuse for another program is refused" true
    (match Interp.run ~coverage:cov q "f" [ Value.Vint 1 ] with
    | exception Invalid_argument _ -> true
    | _ -> false);
  let other = Interp.coverage_create () in
  ignore (Interp.run ~coverage:other q "g" [ Value.Vint 1 ]);
  check "maps of different programs do not mix" true
    (match Coverage.news ~global:cov other with
    | exception Invalid_argument _ -> true
    | _ -> false);
  let fresh = Interp.coverage_create () in
  check_int "everything in a bound map is new to a fresh one" 8
    (Coverage.news ~global:fresh cov);
  Coverage.absorb ~into:fresh cov;
  check_labels "absorb into a fresh map copies it" (Interp.covered cov)
    (Interp.covered fresh)

(* ----- a run never writes into its input ----- *)

(* Mutants share every subtree they leave unchanged with their parent,
   and the memo keeps the inputs it has seen: both need the interpreter
   to copy, never write into, an argument it assigns through. *)
let test_run_leaves_input_intact () =
  let p =
    parse
      {|
        typedef struct { int x; char* name; } Cell;
        typedef struct { Cell cells[2]; } Box;
        int f(Box b) {
          b.cells[1].x = 9;
          b.cells[0].name[0] = 'z';
          return b.cells[1].x + b.cells[0].name[0];
        }
      |}
  in
  let box () =
    let cell x name =
      Value.Vstruct ("Cell", [ ("x", Value.Vint x); ("name", Value.Vstring name) ])
    in
    Value.Vstruct
      ("Box", [ ("cells", Value.Varray [| cell 1 "ab\000"; cell 2 "cd\000" |]) ])
  in
  let input = box () in
  check "the run sees its own writes" true
    (Interp.run p "f" [ input ] = Ok (Value.Vint (9 + Char.code 'z')));
  check "the argument is unchanged" true (Value.equal input (box ()))

(* ----- mutants preserve input shape ----- *)

let rec same_shape (a : Value.t) (b : Value.t) =
  match (a, b) with
  | Value.Vunit, Value.Vunit -> true
  | Value.Vbool _, Value.Vbool _ -> true
  | Value.Vchar _, Value.Vchar _ -> true
  | Value.Vint _, Value.Vint _ -> true
  | Value.Venum (e1, _), Value.Venum (e2, _) -> e1 = e2
  | Value.Vstring s1, Value.Vstring s2 -> String.length s1 = String.length s2
  | Value.Vstruct (n1, f1), Value.Vstruct (n2, f2) ->
      n1 = n2
      && List.length f1 = List.length f2
      && List.for_all2
           (fun (k1, v1) (k2, v2) -> k1 = k2 && same_shape v1 v2)
           f1 f2
  | Value.Varray a1, Value.Varray a2 ->
      Array.length a1 = Array.length a2
      && Array.for_all2 same_shape a1 a2
  | _ -> false

let prop_mutants_preserve_shape =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:300 ~name:"mutants preserve the input shape"
       QCheck2.Gen.(triple (int_range 0 100_000) (int_range 0 4) (int_range 0 3))
       (fun (seed, kind_i, pair_i) ->
         let s = Lazy.force seed_suite in
         let program = List.hd s.Pipeline.programs in
         let tests = Array.of_list s.Pipeline.unique_tests in
         let inputs = tests.(pair_i mod Array.length tests).Testcase.inputs in
         let other =
           Some tests.((pair_i + 1) mod Array.length tests).Testcase.inputs
         in
         let rng = Rng.create seed in
         let kind = List.nth Mutate.all kind_i in
         let mutant =
           Mutate.apply ~sites:(Mutate.sites inputs) ~program
             ~alphabet:model.Model_def.alphabet ~rng kind ~other inputs
         in
         List.length mutant = List.length inputs
         && List.for_all2
              (fun (n1, v1) (n2, v2) -> n1 = n2 && same_shape v1 v2)
              inputs mutant))

(* ----- rng determinism ----- *)

let prop_rng_deterministic =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:200 ~name:"rng streams replay from the seed"
       QCheck2.Gen.(pair (int_range 0 1_000_000) (int_range 1 64))
       (fun (seed, n) ->
         let draw () =
           let rng = Rng.create seed in
           List.init 16 (fun _ -> Rng.int rng n)
         in
         draw () = draw ()))

(* splitmix64 transcribed with its state in a mutable [int64] field,
   which boxes on every draw: the reference stream {!Rng} must draw. *)
module Boxed_rng = struct
  type t = { mutable state : int64 }

  let golden = 0x9E3779B97F4A7C15L

  let mix z =
    let z =
      Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L
    in
    let z =
      Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL
    in
    Int64.logxor z (Int64.shift_right_logical z 31)

  let create seed = { state = mix (Int64.of_int seed) }

  let next t =
    t.state <- Int64.add t.state golden;
    mix t.state

  let split t i = { state = mix (Int64.add t.state (mix (Int64.of_int i))) }

  let int t n =
    Int64.to_int (Int64.rem (Int64.logand (next t) Int64.max_int) (Int64.of_int n))

  let bool t = Int64.logand (next t) 1L = 1L
end

let prop_rng_matches_boxed_reference =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:300
       ~name:"rng draws the stream of the boxed-int64 reference"
       QCheck2.Gen.(
         triple int (int_range 1 max_int)
           (list_size (int_range 1 40) (pair (int_range 0 2) small_nat)))
       (fun (seed, n, steps) ->
         (* one step draws an int, a bool, or splits off a child stream
            labelled by the step's number and draws from it *)
         let draw (int, bool, split) =
           List.map
             (fun (op, i) ->
               match op with
               | 0 -> int n
               | 1 -> Bool.to_int (bool ())
               | _ -> split i)
             steps
         in
         let r = Rng.create seed and b = Boxed_rng.create seed in
         draw
           ( Rng.int r,
             (fun () -> Rng.bool r),
             fun i -> Rng.int (Rng.split r i) n )
         = draw
             ( Boxed_rng.int b,
               (fun () -> Boxed_rng.bool b),
               fun i -> Boxed_rng.int (Boxed_rng.split b i) n )))

(* ----- the fuzz draw is a pure function of its inputs ----- *)

let prop_fuzz_draw_pure =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:10 ~name:"fuzz_draw replays byte-identically"
       QCheck2.Gen.(int_range 0 10_000)
       (fun seed ->
         let s = Lazy.force seed_suite in
         let natives =
           Harness.natives_concrete model.Model_def.graph s.Pipeline.main
         in
         let program = List.hd s.Pipeline.programs in
         let seeds =
           List.filteri (fun i _ -> i < 20) s.Pipeline.unique_tests
         in
         let config = { fuzz_config with fuzz_seed = seed; budget = 60 } in
         let run () =
           Fuzz.fuzz_draw ~natives ~main:s.Pipeline.main ~config
             ~alphabet:model.Model_def.alphabet ~index:0 program seeds
         in
         run () = run ()))

(* ----- the reference engine: the fuzz loop before the candidate memo ----- *)

(* The mutators as they were before they shared unchanged subtrees:
   every argument rebuilt, every string passed copied. Kept as the
   reference [Mutate.apply] must match, mutant for mutant and rng draw
   for rng draw. *)
module Old_mutate = struct
  module Ast = Eywa_minic.Ast

  type site =
    | Sbool of bool
    | Schar of char
    | Sint of int
    | Senum of string * int
    | Sbyte of char

  let rec count_sites which v =
    match v with
    | Value.Vunit -> 0
    | Value.Vbool _ -> ( match which with `All -> 1 | `Enum -> 0)
    | Value.Vchar _ -> ( match which with `All -> 1 | `Enum -> 0)
    | Value.Vint _ -> ( match which with `All -> 1 | `Enum -> 0)
    | Value.Venum _ -> 1
    | Value.Vstring raw -> (
        match which with `All -> String.length raw | `Enum -> 0)
    | Value.Vstruct (_, fs) ->
        List.fold_left (fun a (_, f) -> a + count_sites which f) 0 fs
    | Value.Varray vs ->
        Array.fold_left (fun a f -> a + count_sites which f) 0 vs

  (* Rewrite the [target]-th site (in traversal order) with [f]; all
     other sites — and the whole shape — are untouched. *)
  let rewrite_site which target f v =
    let k = ref target in
    let take () =
      let hit = !k = 0 in
      decr k;
      hit
    in
    let rec go v =
      match v with
      | Value.Vunit -> v
      | Value.Vbool b ->
          if which = `All && take () then f (Sbool b) else v
      | Value.Vchar c ->
          if which = `All && take () then f (Schar c) else v
      | Value.Vint n ->
          if which = `All && take () then f (Sint n) else v
      | Value.Venum (e, i) -> if take () then f (Senum (e, i)) else v
      | Value.Vstring raw ->
          if which = `Enum then v
          else begin
            let b = Bytes.of_string raw in
            for i = 0 to Bytes.length b - 1 do
              if take () then
                match f (Sbyte (Bytes.get b i)) with
                | Value.Vchar c -> Bytes.set b i c
                | _ -> ()
            done;
            Value.Vstring (Bytes.to_string b)
          end
      | Value.Vstruct (n, fs) ->
          Value.Vstruct (n, List.map (fun (fn, fv) -> (fn, go fv)) fs)
      | Value.Varray vs -> Value.Varray (Array.map go vs)
    in
    go v

  (* ----- the individual mutators ----- *)

  let interesting_ints =
    [ 0; 1; 2; 7; 8; 15; 16; 31; 32; 63; 64; 127; 128; 255; 256; 1023; 1024 ]

  let enum_members program ename =
    match Ast.find_enum program ename with
    | Some e -> List.length e.Ast.members
    | None -> 0

  let char_pool alphabet = if alphabet = [] then [ '\000' ] else '\000' :: alphabet

  let byte_site ~program ~alphabet ~rng site =
    let pool = char_pool alphabet in
    match site with
    | Sbool b -> Value.Vbool (not b)
    | Schar _ | Sbyte _ -> Value.Vchar (Rng.pick rng pool)
    | Sint _ -> Value.Vint (Rng.pick rng interesting_ints)
    | Senum (e, i) ->
        let n = enum_members program e in
        Value.Venum (e, if n > 0 then Rng.int rng n else i)

  let arith_site ~program ~alphabet ~rng site =
    let delta () =
      let d = 1 + Rng.int rng 8 in
      if Rng.bool rng then d else -d
    in
    let shift_char c =
      let pool = char_pool alphabet in
      let len = List.length pool in
      let idx =
        let rec find i = function
          | [] -> None
          | x :: rest -> if x = c then Some i else find (i + 1) rest
        in
        find 0 pool
      in
      match idx with
      | None -> Rng.pick rng pool
      | Some i -> List.nth pool (((i + delta ()) mod len + len) mod len)
    in
    match site with
    | Sbool b -> Value.Vbool (not b)
    | Schar c | Sbyte c -> Value.Vchar (shift_char c)
    | Sint n -> Value.Vint (n + delta ())
    | Senum (e, i) ->
        let n = enum_members program e in
        if n > 0 then Value.Venum (e, ((i + delta ()) mod n + n) mod n)
        else Value.Venum (e, i)

  (* Mutate one site across the whole argument vector: sites are counted
     over the concatenation of the argument value trees, so every leaf
     is equally likely regardless of which argument holds it. *)
  let mutate_one which f inputs rng =
    let total =
      List.fold_left (fun a (_, v) -> a + count_sites which v) 0 inputs
    in
    if total = 0 then inputs
    else begin
      let target = ref (Rng.int rng total) in
      List.map
        (fun (n, v) ->
          let here = count_sites which v in
          let v' =
            if !target >= 0 && !target < here then rewrite_site which !target f v
            else v
          in
          target := !target - here;
          (n, v'))
        inputs
    end

  let rec shape_compatible a b =
    match (a, b) with
    | Value.Vunit, Value.Vunit
    | Value.Vbool _, Value.Vbool _
    | Value.Vchar _, Value.Vchar _
    | Value.Vint _, Value.Vint _ ->
        true
    | Value.Venum (e, _), Value.Venum (f, _) -> e = f
    | Value.Vstring x, Value.Vstring y -> String.length x = String.length y
    | Value.Vstruct (n, fs), Value.Vstruct (m, gs) ->
        n = m
        && List.length fs = List.length gs
        && List.for_all2
             (fun (f, v) (g, w) -> f = g && shape_compatible v w)
             fs gs
    | Value.Varray x, Value.Varray y ->
        Array.length x = Array.length y
        && (Array.length x = 0 || shape_compatible x.(0) y.(0))
    | _ -> false

  let rec apply ~program ~alphabet ~rng kind ~other inputs =
    match (kind : Mutate.kind) with
    | Byte -> mutate_one `All (byte_site ~program ~alphabet ~rng) inputs rng
    | Arith -> mutate_one `All (arith_site ~program ~alphabet ~rng) inputs rng
    | Enum ->
        let total =
          List.fold_left (fun a (_, v) -> a + count_sites `Enum v) 0 inputs
        in
        if total = 0 then
          (* no enum anywhere in the signature: degrade gracefully *)
          apply ~program ~alphabet ~rng Byte ~other inputs
        else mutate_one `Enum (byte_site ~program ~alphabet ~rng) inputs rng
    | Havoc ->
        let rounds = 1 + Rng.int rng 4 in
        let rec go n acc =
          if n = 0 then acc
          else
            let kind = Rng.pick rng [ Mutate.Byte; Arith; Enum ] in
            go (n - 1) (apply ~program ~alphabet ~rng kind ~other acc)
        in
        go rounds inputs
    | Splice -> (
        match other with
        | None -> apply ~program ~alphabet ~rng Havoc ~other inputs
        | Some partner ->
            List.map
              (fun (n, v) ->
                match List.assoc_opt n partner with
                | Some w when shape_compatible v w && Rng.bool rng -> (n, w)
                | _ -> (n, v))
              inputs)
end

(* The draw loop as it was before the memo, the prepared runner and the
   running edge count: every candidate run on a fresh coverage map,
   with the old mutators. Kept as the reference [Fuzz.fuzz_draw] must
   match artifact for artifact. (It fails on a draw without seeds.) *)
type ref_corpus = {
  mutable inputs : (string * Value.t) list array;
  mutable sums : int array;
  mutable size : int;
}

let ref_corpus_add c inputs energy =
  if c.size = Array.length c.inputs then begin
    let grow a fill =
      let b = Array.make (max 64 (2 * c.size)) fill in
      Array.blit a 0 b 0 c.size;
      b
    in
    c.inputs <- grow c.inputs [];
    c.sums <- grow c.sums 0
  end;
  let before = if c.size = 0 then 0 else c.sums.(c.size - 1) in
  c.inputs.(c.size) <- inputs;
  c.sums.(c.size) <- before + max 1 energy;
  c.size <- c.size + 1

let ref_pick_parent rng c =
  let target = Rng.int rng c.sums.(c.size - 1) in
  let rec search lo hi =
    if lo = hi then lo
    else
      let mid = (lo + hi) / 2 in
      if c.sums.(mid) > target then search lo mid else search (mid + 1) hi
  in
  c.inputs.(search 0 (c.size - 1))

let fuzz_draw_reference ?(repeats = ref 0) ~natives ~main ~(config : Fuzz.config)
    ~alphabet ~index program seeds : Fuzz.draw_fuzz =
  (* [repeats] counts the candidates equal to an input run before *)
  let ran = Hashtbl.create 64 in
  let ran_before inputs =
    Hashtbl.mem ran inputs || (Hashtbl.replace ran inputs (); false)
  in
  let rng = Rng.create (config.fuzz_seed + index) in
  let global = Interp.coverage_create () in
  let corpus = { inputs = [||]; sums = [||]; size = 0 } in
  List.iter
    (fun (t : Testcase.t) ->
      let local = Interp.coverage_create () in
      ignore
        (Coverage.execute ~fuel:config.fuel ~natives ~main ~coverage:local
           program t.Testcase.inputs);
      ignore (ran_before t.Testcase.inputs);
      let fresh = Coverage.news ~global local in
      Coverage.absorb ~into:global local;
      ref_corpus_add corpus t.Testcase.inputs fresh)
    seeds;
  let edges_seed = Coverage.count global in
  let edges_static = List.length (Interp.static_edges program) in
  let mutators = if config.mutators = [] then Mutate.all else config.mutators in
  let new_tests = ref [] in
  let n_new = ref 0 in
  let execs = ref 0 in
  while
    !execs < config.budget
    && !n_new < config.max_new_tests
    && Coverage.count global < edges_static
  do
    let parent = ref_pick_parent rng corpus in
    let kind = Rng.pick rng mutators in
    let other =
      match kind with
      | Mutate.Splice -> Some corpus.inputs.(Rng.int rng corpus.size)
      | _ -> None
    in
    let candidate = Old_mutate.apply ~program ~alphabet ~rng kind ~other parent in
    if ran_before candidate then incr repeats;
    let local = Interp.coverage_create () in
    let test =
      Coverage.execute ~fuel:config.fuel ~natives ~main ~coverage:local program
        candidate
    in
    incr execs;
    let fresh = Coverage.news ~global local in
    if fresh > 0 then begin
      Coverage.absorb ~into:global local;
      ref_corpus_add corpus test.Testcase.inputs fresh;
      new_tests := test :: !new_tests;
      incr n_new
    end
  done;
  {
    f_index = index;
    execs = !execs;
    edges_seed;
    edges_after = Coverage.count global;
    edges_static;
    new_tests = List.rev !new_tests;
  }

(* Small alphabets make mutants collide with seeds, parents and each
   other often, so the memo answers many candidates. *)
let small_alphabets = [| [ 'a' ]; [ 'a'; '.' ]; [ '*'; 'b' ] |]

let prop_fuzz_draw_matches_reference =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:25 ~name:"fuzz_draw = the reference loop"
       QCheck2.Gen.(
         quad (int_range 0 100_000) (int_range 0 400) (int_range 0 2)
           (int_range 0 30))
       (fun (seed, budget, alpha_i, n_seeds) ->
         let s = Lazy.force seed_suite in
         let natives =
           Harness.natives_concrete model.Model_def.graph s.Pipeline.main
         in
         let program = List.hd s.Pipeline.programs in
         let seeds =
           List.filteri (fun i _ -> i < 1 + n_seeds) s.Pipeline.unique_tests
         in
         let config = { fuzz_config with fuzz_seed = seed; budget } in
         let alphabet = small_alphabets.(alpha_i) in
         let go f =
           f ~natives ~main:s.Pipeline.main ~config ~alphabet ~index:0 program
             seeds
         in
         go Fuzz.fuzz_draw = go (fuzz_draw_reference ?repeats:None)))

(* the property above is only as good as the repeats it meets: on a
   one-letter alphabet, most candidates repeat an input already run *)
let test_reference_meets_repeats () =
  let s = Lazy.force seed_suite in
  let natives = Harness.natives_concrete model.Model_def.graph s.Pipeline.main in
  let program = List.hd s.Pipeline.programs in
  let seeds = List.filteri (fun i _ -> i < 10) s.Pipeline.unique_tests in
  let config = { fuzz_config with fuzz_seed = 3; budget = 300 } in
  let repeats = ref 0 in
  let go f =
    f ~natives ~main:s.Pipeline.main ~config ~alphabet:[ 'a' ] ~index:0 program
      seeds
  in
  let d = go (fuzz_draw_reference ~repeats) in
  check "a third of the candidates repeat" true (!repeats * 3 > d.execs);
  check "fuzz_draw = the reference loop" true (go Fuzz.fuzz_draw = d)

let prop_mutate_matches_reference =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:500 ~name:"Mutate.apply = the reference mutators"
       QCheck2.Gen.(
         quad (int_range 0 100_000) (int_range 0 4) (int_range 0 1000)
           (int_range 0 2))
       (fun (seed, kind_i, pair_i, alpha_i) ->
         let s = Lazy.force seed_suite in
         let program = List.hd s.Pipeline.programs in
         let tests = Array.of_list s.Pipeline.unique_tests in
         let inputs = tests.(pair_i mod Array.length tests).Testcase.inputs in
         let other =
           Some tests.((pair_i + 7) mod Array.length tests).Testcase.inputs
         in
         let kind = List.nth Mutate.all kind_i in
         let alphabet = small_alphabets.(alpha_i) in
         let r1 = Rng.create seed and r2 = Rng.create seed in
         let m1 =
           Mutate.apply ~sites:(Mutate.sites inputs) ~program ~alphabet ~rng:r1 kind
             ~other inputs
         in
         let m2 = Old_mutate.apply ~program ~alphabet ~rng:r2 kind ~other inputs in
         (* equal next draws: the two streams stand at the same state *)
         m1 = m2 && Rng.int r1 max_int = Rng.int r2 max_int))

(* Sites depend on the shape alone, which every mutant keeps: the
   sites of a mutant serve a mutation of its parent. *)
let prop_mutate_sites_of_a_mutant =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:300 ~name:"Mutate.apply given a mutant's sites = its parent's"
       QCheck2.Gen.(
         quad (int_range 0 100_000) (int_range 0 4) (int_range 0 1000)
           (int_range 0 2))
       (fun (seed, kind_i, pair_i, alpha_i) ->
         let s = Lazy.force seed_suite in
         let program = List.hd s.Pipeline.programs in
         let tests = Array.of_list s.Pipeline.unique_tests in
         let inputs = tests.(pair_i mod Array.length tests).Testcase.inputs in
         let other =
           Some tests.((pair_i + 7) mod Array.length tests).Testcase.inputs
         in
         let alphabet = small_alphabets.(alpha_i) in
         let mutant =
           Mutate.apply ~sites:(Mutate.sites inputs) ~program ~alphabet
             ~rng:(Rng.create (seed + 1))
             (List.nth Mutate.all ((kind_i + 1) mod 5)) ~other inputs
         in
         let kind = List.nth Mutate.all kind_i in
         let r1 = Rng.create seed and r2 = Rng.create seed in
         let m1 =
           Mutate.apply ~sites:(Mutate.sites inputs) ~program ~alphabet ~rng:r1 kind
             ~other inputs
         in
         let m2 =
           Mutate.apply ~sites:(Mutate.sites mutant) ~program ~alphabet ~rng:r2 kind
             ~other inputs
         in
         m1 = m2 && Rng.int r1 max_int = Rng.int r2 max_int))

(* ----- a draw without seeds ----- *)

(* A symex run that times out before its first test leaves a draw with
   no seeds: nothing to mutate, so nothing runs. The loop used to pick a
   parent from the empty corpus and fail with "index out of bounds". *)
let test_no_seed_draw () =
  let s = Lazy.force seed_suite in
  let natives = Harness.natives_concrete model.Model_def.graph s.Pipeline.main in
  let program = List.hd s.Pipeline.programs in
  let d =
    Fuzz.fuzz_draw ~natives ~main:s.Pipeline.main ~config:fuzz_config
      ~alphabet:model.Model_def.alphabet ~index:0 program []
  in
  check_int "no execution" 0 d.execs;
  check_int "no seed edges" 0 d.edges_seed;
  check_int "no edges after" 0 d.edges_after;
  check "the static universe is still reported" true (d.edges_static > 0);
  check_int "no keepers" 0 (List.length d.new_tests)

(* ----- the memo's hash sees every leaf ----- *)

(* A FULLLOOKUP-shaped input: one zone struct holding many records.
   Polymorphic [Hashtbl.hash] gives up after ten meaningful leaves, so
   two such inputs that differ only in the last leaf collide there, and
   a memo keyed on it degrades to a list scan. *)
let zone_input last =
  let record i rdat =
    Value.Vstruct
      ( "Record",
        [
          ("rtyp", Value.Venum ("RecordType", i mod 7));
          ("name", Value.Vstring (Printf.sprintf "a%d\000" (i mod 10)));
          ("rdat", Value.Vstring rdat);
        ] )
  in
  let recs = Array.init 12 (fun i -> record i (if i = 11 then last else "b.\000\000")) in
  [
    ("query", Value.Vstring "*a\000\000");
    ("qtype", Value.Venum ("RecordType", 0));
    ("zone", Value.Vstruct ("Zone", [ ("recs", Value.Varray recs) ]));
  ]

let test_memo_hash_sees_last_leaf () =
  let a = zone_input "b.\000\000" and b = zone_input "b.\000a" in
  check "the inputs differ" false (a = b);
  check "polymorphic Hashtbl.hash collides on them" true
    (Hashtbl.hash a = Hashtbl.hash b);
  check "Memo.hash tells them apart" true (Memo.hash a <> Memo.hash b);
  check "Memo.hash is structural" true
    (Memo.hash a = Memo.hash (zone_input "b.\000\000"));
  let m = Memo.create 4 in
  check "a is new" true (Memo.add m a);
  check "b is new" true (Memo.add m b);
  check "an equal copy of a is not" false (Memo.add m (zone_input "b.\000\000"))

(* ----- artifact codec ----- *)

let test_artifact_roundtrip () =
  let s = Lazy.force seed_suite in
  let f = fuzz model s in
  List.iter
    (fun (d : Fuzz.draw_fuzz) ->
      let encoded = Fuzz.artifact_to_string d in
      match Fuzz.artifact_of_string encoded with
      | Error e -> Alcotest.fail ("decode failed: " ^ e)
      | Ok decoded ->
          check
            (Printf.sprintf "draw %d round-trips exactly" d.f_index)
            true (decoded = d);
          check_string "encode . decode . encode is the identity" encoded
            (Fuzz.artifact_to_string decoded))
    f.per_draw

let test_artifact_rejects_garbage () =
  let s = Lazy.force seed_suite in
  let f = fuzz model s in
  let encoded = Fuzz.artifact_to_string (List.hd f.per_draw) in
  (* every information-losing prefix must decode to Error, never
     raise; cutting only the final newline loses nothing, so stop one
     byte short of it *)
  for cut = 0 to String.length encoded - 2 do
    match Fuzz.artifact_of_string (String.sub encoded 0 cut) with
    | Error _ -> ()
    | Ok _ ->
        Alcotest.failf "truncation at byte %d of %d decoded successfully" cut
          (String.length encoded)
  done;
  check "wrong header rejected" true
    (Result.is_error (Fuzz.artifact_of_string "eywa-fuzz 2\nindex 0\n"));
  check "non-numeric field rejected" true
    (Result.is_error
       (Fuzz.artifact_of_string "eywa-fuzz 1\nindex zero\nexecs 0\n"))

(* ----- interpreter regression: errors escaping nested calls ----- *)

(* Before the scope-restoration fix, a runtime error thrown two call
   frames deep left the callee's (shorter) scope stack in place; the
   caller's block handlers then popped past its end and the whole run
   died with [Failure "tl"] instead of returning [Error]. The fuzzer
   tripped this immediately — mutated inputs reach error paths symex
   seeds rarely take. *)
let nested_error_src =
  {|
    int inner(int x) { return 10 / x; }
    int mid(int x) { return inner(x); }
    int outer(int x) {
      if (x > 0) {
        return mid(0);
      }
      return 0;
    }
  |}

let test_nested_call_error () =
  let p =
    match Parser.parse_result nested_error_src with
    | Ok p -> p
    | Error e -> Alcotest.failf "parse failed: %s" e
  in
  (match Interp.run p "outer" [ Value.Vint 1 ] with
  | Error (Interp.Runtime _) -> ()
  | Ok v -> Alcotest.failf "expected a runtime error, got %s" (Value.to_string v)
  | Error Interp.Out_of_fuel -> Alcotest.fail "expected Runtime, got fuel");
  (* fuel exhaustion inside a nested frame takes the same path *)
  match Interp.run ~fuel:5 p "outer" [ Value.Vint 1 ] with
  | Error Interp.Out_of_fuel -> ()
  | Ok v -> Alcotest.failf "expected fuel error, got %s" (Value.to_string v)
  | Error (Interp.Runtime m) -> Alcotest.failf "expected fuel error, got %s" m

let suite =
  [
    Alcotest.test_case "fuzz output: jobs=1 = jobs=4" `Slow test_jobs_invariant;
    Alcotest.test_case "warm cache = cold run (jobs 1 and 4)" `Slow
      test_warm_equals_cold;
    Alcotest.test_case "a cache entry that does not decode is a miss" `Slow
      test_garbled_entry_is_a_miss;
    Alcotest.test_case "cache key covers every fuzz input" `Quick
      test_key_sensitivity;
    Alcotest.test_case "dynamic coverage is a subset of static edges" `Slow
      test_dynamic_subset_static;
    Alcotest.test_case "a draw stops once every static edge is covered" `Slow
      test_stops_at_static_edges;
    Alcotest.test_case "a complete draw's staged artifact = the full loop" `Slow
      test_complete_draws_skip_nothing;
    Alcotest.test_case "an incomplete draw runs the full loop" `Slow
      test_incomplete_draws_mutate;
    Alcotest.test_case "one seed phase per program = per-draw artifacts" `Slow
      test_shared_seeding_equals_per_draw;
    Alcotest.test_case "edge labels of a fixed program" `Quick test_edge_labels;
    Alcotest.test_case "a coverage map belongs to one program" `Quick
      test_coverage_one_program;
    Alcotest.test_case "a run never writes into its input" `Quick
      test_run_leaves_input_intact;
    prop_mutants_preserve_shape;
    prop_rng_deterministic;
    prop_rng_matches_boxed_reference;
    prop_fuzz_draw_pure;
    prop_fuzz_draw_matches_reference;
    Alcotest.test_case "small alphabets make mutants repeat" `Quick
      test_reference_meets_repeats;
    prop_mutate_matches_reference;
    prop_mutate_sites_of_a_mutant;
    Alcotest.test_case "a draw without seeds runs nothing" `Quick
      test_no_seed_draw;
    Alcotest.test_case "the memo hash sees the last leaf" `Quick
      test_memo_hash_sees_last_leaf;
    Alcotest.test_case "fuzz artifacts round-trip the codec" `Slow
      test_artifact_roundtrip;
    Alcotest.test_case "truncated artifacts decode to Error" `Slow
      test_artifact_rejects_garbage;
    Alcotest.test_case "errors escaping nested calls return Error" `Quick
      test_nested_call_error;
  ]
