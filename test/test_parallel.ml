(* The PR-1 determinism contract: the domain pool is an implementation
   detail. The synthesis pipeline, difftest, and quirk attribution must
   produce bit-for-bit the same answer at jobs=1 and jobs=4; Pool.map
   itself must preserve input order and surface the sequentially-first
   exception.

   The symex budget is a deterministic tick count, so even a model
   that exhausts it must agree across pool sizes; the generous budget
   here just keeps these models on their fast, complete paths. *)

module Pool = Eywa_core.Pool
module Pipeline = Eywa_core.Pipeline
module Term = Eywa_solver.Term
module Model_def = Eywa_models.Model_def
module Dns_models = Eywa_models.Dns_models
module Bgp_models = Eywa_models.Bgp_models
module Smtp_models = Eywa_models.Smtp_models
module Testcase = Eywa_core.Testcase

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let oracle = Eywa_llm.Gpt.oracle ()

(* Everything observable about a synthesis except wall-clock fields. *)
let fingerprint (s : Pipeline.t) =
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

let synth ~jobs model =
  match Model_def.synthesize ~k:4 ~timeout:10.0 ~jobs ~oracle model with
  | Ok s -> s
  | Error e -> Alcotest.fail e

let assert_jobs_invariant (m : Model_def.t) =
  let s1 = synth ~jobs:1 m in
  let s4 = synth ~jobs:4 m in
  Alcotest.(check string)
    (m.id ^ " fingerprint jobs=1 = jobs=4")
    (fingerprint s1) (fingerprint s4);
  check_int (m.id ^ " unique test count")
    (List.length s1.unique_tests)
    (List.length s4.unique_tests);
  check_int (m.id ^ " loc_min") s1.loc_min s4.loc_min;
  check_int (m.id ^ " loc_max") s1.loc_max s4.loc_max

let test_dns_jobs_invariant () = assert_jobs_invariant Dns_models.cname
let test_dname_jobs_invariant () = assert_jobs_invariant Dns_models.dname
let test_bgp_jobs_invariant () = assert_jobs_invariant Bgp_models.rr
let test_smtp_jobs_invariant () = assert_jobs_invariant Smtp_models.server

let cname_suite = lazy (synth ~jobs:4 Dns_models.cname).unique_tests

let test_difftest_jobs_invariant () =
  let run jobs =
    Format.asprintf "%a" Eywa_difftest.Difftest.pp_report
      (Eywa_models.Dns_adapter.run ~jobs ~model_id:"CNAME"
         ~version:Eywa_dns.Impls.Old (Lazy.force cname_suite))
  in
  Alcotest.(check string) "difftest report jobs=1 = jobs=4" (run 1) (run 4)

(* ----- quirk attribution against the naive triage ----- *)

module Difftest = Eywa_difftest.Difftest
module Dns_adapter = Eywa_models.Dns_adapter
module Bgp_adapter = Eywa_models.Bgp_adapter
module Smtp_adapter = Eywa_models.Smtp_adapter
module Tcp_adapter = Eywa_models.Tcp_adapter
module Stateful_adapter = Eywa_models.Stateful_adapter

let dissenters ds = List.map (fun (d : Difftest.disagreement) -> d.d_impl) ds

let tagged models_and_tests =
  List.concat_map
    (fun (id, tests) -> List.map (fun t -> (id, t)) tests)
    models_and_tests

let old = Eywa_dns.Impls.Old

(* Every suspect, every quirk, on every disagreeing test, deduplicated
   in first-occurrence order: what [Difftest.attribute] must return
   however it skips pairs it already confirmed or quirks a run did not
   consult. *)
let dns_reference ~version models_and_tests =
  Difftest_naive.attribute ~suspects:dissenters ~impls:(Dns_adapter.impls version)
    ~render:Dns_adapter.fields_of_outcome
    ~prepare:(fun (model_id, t) -> Dns_adapter.prepare ~model_id t)
    (tagged models_and_tests)

let state_graph = function Ok g -> g | Error m -> Alcotest.fail m

(* the CNAME suite twice: its second copy is a run of chunks that
   confirm nothing new, and DNAME still confirms pairs after it *)
let dns_suites =
  lazy
    (("CNAME", Lazy.force cname_suite)
    :: ("CNAME", Lazy.force cname_suite)
    :: List.map
         (fun (m : Model_def.t) -> (m.id, (synth ~jobs:1 m).unique_tests))
         [ Dns_models.dname; Dns_models.wildcard ])

let bgp_suites =
  lazy
    (List.map
       (fun (m : Model_def.t) -> (m.id, (synth ~jobs:1 m).unique_tests))
       [ Bgp_models.confed; Bgp_models.rr; Bgp_models.rmap_pl ])

let stateful_suite model state_graph_for =
  lazy
    (let s = synth ~jobs:1 model in
     (state_graph (state_graph_for s), s.unique_tests))

let smtp_suite = stateful_suite Smtp_models.server Smtp_adapter.state_graph_for

let tcp_suite =
  stateful_suite Eywa_models.Tcp_models.server Tcp_adapter.state_graph_for

let bgp_suspects _ = List.map (fun i -> i.Eywa_bgp.Impls.name) Eywa_bgp.Impls.all
let tcp_suspects _ = List.map (fun i -> i.Eywa_tcp.Impls.name) Eywa_tcp.Impls.all

let test_quirks_jobs_invariant () =
  let dns = Lazy.force dns_suites in
  check "the DNS list spans more than one chunk" true
    (List.length (List.concat_map snd dns) > 2 * Difftest.attribute_chunk);
  let dns_ref = dns_reference ~version:old dns in
  let bgp = Lazy.force bgp_suites in
  let bgp_ref =
    Difftest_naive.attribute ~suspects:bgp_suspects ~impls:Bgp_adapter.impls
      ~render:Fun.id
      ~prepare:(fun (model_id, t) -> Bgp_adapter.prepare ~model_id t)
      (tagged bgp)
  in
  let smtp_graph, smtp = Lazy.force smtp_suite in
  let smtp_ref =
    Difftest_naive.attribute ~suspects:dissenters
      ~impls:Smtp_adapter.machine.impls ~render:Stateful_adapter.render
      ~prepare:(Smtp_adapter.prepare ~graph:smtp_graph)
      smtp
  in
  let tcp_graph, tcp = Lazy.force tcp_suite in
  let tcp_ref =
    Difftest_naive.attribute ~suspects:tcp_suspects
      ~impls:Tcp_adapter.machine.impls ~render:Stateful_adapter.render
      ~prepare:(Tcp_adapter.prepare ~graph:tcp_graph)
      tcp
  in
  check "every reference confirms some pair" true
    (dns_ref <> [] && bgp_ref <> [] && smtp_ref <> [] && tcp_ref <> []);
  List.iter
    (fun jobs ->
      let name proto =
        Printf.sprintf "%s attribution jobs=%d = naive" proto jobs
      in
      check (name "DNS") true
        (Dns_adapter.quirks_triggered ~jobs ~version:old dns = dns_ref);
      check (name "BGP") true
        (Bgp_adapter.quirks_triggered ~jobs bgp = bgp_ref);
      check (name "SMTP") true
        (Smtp_adapter.quirks_triggered ~jobs ~graph:smtp_graph smtp = smtp_ref);
      check (name "TCP") true
        (Tcp_adapter.quirks_triggered ~jobs ~graph:tcp_graph tcp = tcp_ref))
    [ 1; 4 ]

let quirks_any_order =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:4
       ~name:"DNS attribution of a shuffled suite = naive, for jobs in 1..4"
       QCheck2.Gen.(
         pair (int_range 1 4)
           (delay (fun () -> shuffle_l (Lazy.force cname_suite))))
       (fun (jobs, tests) ->
         let version = Eywa_dns.Impls.Old in
         List.length tests > 2 * Difftest.attribute_chunk
         && Dns_adapter.quirks_triggered ~jobs ~version [ ("CNAME", tests) ]
            = dns_reference ~version [ ("CNAME", tests) ]))

(* ----- the memoized serve against the full serve ----- *)

(* A suite repeated until it spans more than two attribution chunks,
   then shuffled. *)
let long ~rand tests =
  let copies = (2 * Difftest.attribute_chunk / max 1 (List.length tests)) + 1 in
  List.map snd
    (List.stable_sort
       (fun (a, _) (b, _) -> compare a b)
       (List.map
          (fun t -> (Random.State.bits rand, t))
          (List.concat (List.init copies (fun _ -> tests)))))

(* The memoized observations, report and attribution of one protocol
   equal the full serve: every implementation served and rendered on
   every test, and every quirk of every suspect tried. *)
let memo_is_full_serve ~jobs ~suspects ~impls ~render ~prepare tests =
  let acc = Difftest.create () in
  let observations_agree =
    List.for_all
      (fun t ->
        match prepare t with
        | None -> true
        | Some serve ->
            let full = Difftest_naive.observe ~impls ~render serve in
            ignore (Difftest.record acc full);
            Difftest.observe ~impls ~render serve = full)
      tests
  in
  List.length tests > 2 * Difftest.attribute_chunk
  && observations_agree
  && Difftest.run ~jobs ~impls ~render ~prepare tests = Difftest.report acc
  && Difftest.attribute ~jobs ~suspects ~impls ~render ~prepare tests
     = Difftest_naive.attribute ~suspects ~impls ~render ~prepare tests

let memo_equals_full_serve =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:4
       ~name:"memoized difftest and attribution = full serve, 4 protocols"
       QCheck2.Gen.(pair (oneofl [ 1; 4 ]) int)
       (fun (jobs, seed) ->
         let rand = Random.State.make [| seed |] in
         let smtp_graph, smtp = Lazy.force smtp_suite in
         let tcp_graph, tcp = Lazy.force tcp_suite in
         memo_is_full_serve ~jobs ~suspects:Difftest.dissenters
           ~impls:(Dns_adapter.impls old) ~render:Dns_adapter.fields_of_outcome
           ~prepare:(fun (model_id, t) -> Dns_adapter.prepare ~model_id t)
           (long ~rand (tagged (Lazy.force dns_suites)))
         && memo_is_full_serve ~jobs ~suspects:bgp_suspects
              ~impls:Bgp_adapter.impls ~render:Fun.id
              ~prepare:(fun (model_id, t) -> Bgp_adapter.prepare ~model_id t)
              (long ~rand (tagged (Lazy.force bgp_suites)))
         && memo_is_full_serve ~jobs ~suspects:Difftest.dissenters
              ~impls:Smtp_adapter.machine.impls ~render:Stateful_adapter.render
              ~prepare:(Smtp_adapter.prepare ~graph:smtp_graph)
              (long ~rand smtp)
         && memo_is_full_serve ~jobs ~suspects:tcp_suspects
              ~impls:Tcp_adapter.machine.impls ~render:Stateful_adapter.render
              ~prepare:(Tcp_adapter.prepare ~graph:tcp_graph)
              (long ~rand tcp)))

(* ----- Pool.map semantics ----- *)

exception Boom of int

let pool_map_preserves_order =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:100
       ~name:"Pool.map f xs = List.map f xs, in order, for jobs in 1..4"
       QCheck2.Gen.(pair (int_range 1 4) (list_size (int_range 0 40) small_int))
       (fun (jobs, xs) ->
         let f x = (x * 31) + (x mod 7) in
         Pool.with_pool ~jobs (fun pool -> Pool.map pool f xs) = List.map f xs))

let pool_map_first_exception =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:100
       ~name:"Pool.map raises the smallest failing index's exception"
       QCheck2.Gen.(
         triple (int_range 1 4) (int_range 0 20)
           (list_size (int_range 1 20) (int_range 0 19)))
       (fun (jobs, len, bad) ->
         let xs = List.init (len + List.fold_left max 0 bad + 1) Fun.id in
         let f i = if List.mem i bad then raise (Boom i) else i in
         let expected = List.fold_left min max_int bad in
         match Pool.with_pool ~jobs (fun pool -> Pool.map pool f xs) with
         | _ -> false
         | exception Boom i -> i = expected))

let test_pool_nested_map_inline () =
  (* map from inside a worker must not deadlock: it runs inline *)
  let outer =
    Pool.with_pool ~jobs:2 (fun pool ->
        Pool.map pool
          (fun i ->
            Pool.with_pool ~jobs:2 (fun inner ->
                Pool.map inner (fun j -> (10 * i) + j) [ 1; 2; 3 ]))
          [ 1; 2 ])
  in
  check "nested pools compute the right thing" true
    (outer = [ [ 11; 12; 13 ]; [ 21; 22; 23 ] ])

let test_pool_default_jobs_positive () =
  check "default_jobs >= 1" true (Pool.default_jobs () >= 1)

(* ----- per-domain term ids ----- *)

let test_with_fresh_ids_isolates () =
  Term.with_fresh_ids @@ fun () ->
  let v0 = Term.fresh_var (Term.Sint 2) [| 0; 1 |] in
  let inner =
    Term.with_fresh_ids (fun () ->
        let w = Term.fresh_var (Term.Sint 2) [| 0; 1 |] in
        w.Term.vid)
  in
  let v1 = Term.fresh_var (Term.Sint 2) [| 0; 1 |] in
  check_int "outer first id" 0 v0.Term.vid;
  check_int "inner restarts at 0" 0 inner;
  check_int "outer counter unaffected by inner scope" 1 v1.Term.vid

let test_fresh_ids_per_domain () =
  (* each pool worker allocates from its own dense counter *)
  let ids =
    Pool.with_pool ~jobs:4 (fun pool ->
        Pool.map pool
          (fun _ ->
            Term.with_fresh_ids (fun () ->
                let a = Term.fresh_var (Term.Sint 2) [| 0; 1 |] in
                let b = Term.fresh_var (Term.Sint 2) [| 0; 1 |] in
                (a.Term.vid, b.Term.vid)))
          [ 0; 1; 2; 3 ])
  in
  check "every domain's ids are dense from 0" true
    (List.for_all (fun p -> p = (0, 1)) ids)

let suite =
  [
    Alcotest.test_case "DNS CNAME: jobs=1 = jobs=4" `Slow test_dns_jobs_invariant;
    Alcotest.test_case "DNS DNAME: jobs=1 = jobs=4" `Slow
      test_dname_jobs_invariant;
    Alcotest.test_case "BGP RR: jobs=1 = jobs=4" `Slow test_bgp_jobs_invariant;
    Alcotest.test_case "SMTP SERVER: jobs=1 = jobs=4" `Slow
      test_smtp_jobs_invariant;
    Alcotest.test_case "difftest report: jobs=1 = jobs=4" `Slow
      test_difftest_jobs_invariant;
    Alcotest.test_case "quirk attribution: jobs=1 = jobs=4" `Slow
      test_quirks_jobs_invariant;
    quirks_any_order;
    memo_equals_full_serve;
    pool_map_preserves_order;
    pool_map_first_exception;
    Alcotest.test_case "nested Pool.map runs inline" `Quick
      test_pool_nested_map_inline;
    Alcotest.test_case "default_jobs is positive" `Quick
      test_pool_default_jobs_positive;
    Alcotest.test_case "with_fresh_ids isolates the counter" `Quick
      test_with_fresh_ids_isolates;
    Alcotest.test_case "pool workers get dense ids from 0" `Quick
      test_fresh_ids_per_domain;
  ]
