(* The PR-3 fuzz-stage contract, mirroring test_pipeline.ml:

   - A fuzz run is byte-identical at jobs=1 and jobs=4, and on a warm
     cache vs a cold one — the budget is a deterministic tick count and
     the artifact stores no wall-clock fields.
   - The fuzz cache key extends the draw key with every fuzz input
     (seed, budget, keeper cap, mutator set, fuel) and, like the draw
     key, excludes k.
   - Fuzz artifacts round-trip the codec exactly; truncated or
     malformed payloads decode to [Error], never an exception.
   - Dynamic edge coverage is a subset of the static edge universe,
     and edge labels are pinned for a fixed program; a coverage map is
     bound to one program.
   - Mutants preserve the shape of the input vector (same constructor
     tree, string lengths, array sizes, struct fields).
   - Regression: a runtime error escaping a nested call must surface
     as [Error], not corrupt the interpreter's scope stack. *)

module Fuzz = Eywa_fuzz.Fuzz
module Mutate = Eywa_fuzz.Mutate
module Rng = Eywa_fuzz.Rng
module Coverage = Eywa_fuzz.Coverage
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
    (key ~pipeline:{ pipeline with k = 12 } ())

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
           Mutate.apply ~program ~alphabet:model.Model_def.alphabet ~rng kind
             ~other inputs
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
    Alcotest.test_case "cache key covers every fuzz input" `Quick
      test_key_sensitivity;
    Alcotest.test_case "dynamic coverage is a subset of static edges" `Slow
      test_dynamic_subset_static;
    Alcotest.test_case "edge labels of a fixed program" `Quick test_edge_labels;
    Alcotest.test_case "a coverage map belongs to one program" `Quick
      test_coverage_one_program;
    prop_mutants_preserve_shape;
    prop_rng_deterministic;
    prop_fuzz_draw_pure;
    Alcotest.test_case "fuzz artifacts round-trip the codec" `Slow
      test_artifact_roundtrip;
    Alcotest.test_case "truncated artifacts decode to Error" `Slow
      test_artifact_rejects_garbage;
    Alcotest.test_case "errors escaping nested calls return Error" `Quick
      test_nested_call_error;
  ]
