(* Integration: the 13 Table-2 models through the whole pipeline, and
   the protocol adapters that replay their tests differentially. *)

module Model_def = Eywa_models.Model_def
module All = Eywa_models.All_models
module Dns_models = Eywa_models.Dns_models
module Bgp_models = Eywa_models.Bgp_models
module Smtp_models = Eywa_models.Smtp_models
module Dns_adapter = Eywa_models.Dns_adapter
module Bgp_adapter = Eywa_models.Bgp_adapter
module Smtp_adapter = Eywa_models.Smtp_adapter
module Testcase = Eywa_core.Testcase
module Pipeline = Eywa_core.Pipeline
module Difftest = Eywa_difftest.Difftest

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let oracle = Eywa_llm.Gpt.oracle ()

(* small budgets: a 2 s tick budget and at most 600 paths per draw *)
let synth ?(k = 2) (model : Model_def.t) =
  let config =
    { (Model_def.pipeline_config ~k ~timeout:2.0 model) with max_paths = 600 }
  in
  Pipeline.run ~config ~oracle model.graph ~main:model.main

let test_roster () =
  check_int "thirteen models" 13 (List.length All.all);
  check_int "eight DNS" 8 (List.length All.dns);
  check_int "four BGP" 4 (List.length All.bgp);
  check_int "one SMTP" 1 (List.length All.smtp);
  check "find by id" true (All.find "RMAP-PL" <> None);
  check "unknown id" true (All.find "QUIC" = None)

(* The TCP extension model is reachable by id, which is how the CLI
   resolves a model, but stays out of the thirteen-model roster that
   the Table 2 and Table 3 loops walk. *)
let test_find_tcp_extension () =
  (match All.find "TCP" with
  | Some m -> check "find TCP = Tcp_models.server" true (m == Eywa_models.Tcp_models.server)
  | None -> Alcotest.fail "TCP not found");
  check "TCP not in the roster" false
    (List.exists (fun (m : Model_def.t) -> m.id = "TCP") All.all)

(* Also the standing symbolic/concrete agreement check: every emitted
   test of every compiled draw must replay through the interpreter to
   the result symex recorded, which is what keeps the sliced, hinted
   feasibility probe honest on real models. *)
let test_every_model_synthesizes () =
  List.iter
    (fun (m : Model_def.t) ->
      match synth m with
      | Error e -> Alcotest.failf "%s: %s" m.id e
      | Ok result ->
          check (m.id ^ " produced tests") true (List.length result.unique_tests > 0);
          check (m.id ^ " compiled at least one model") true (result.programs <> []);
          check (m.id ^ " loc bounds") true (0 < result.loc_min && result.loc_min <= result.loc_max);
          let checked, bad = Replay_check.disagreements m.graph result in
          check (m.id ^ " tests replayed") true (checked > 0);
          Alcotest.(check string)
            (m.id ^ " symex agrees with concrete replay")
            "" (String.concat "\n" bad))
    All.all

let test_unique_tests_are_unique () =
  match synth Dns_models.dname with
  | Error e -> Alcotest.fail e
  | Ok result ->
      let keys = List.map Testcase.key result.unique_tests in
      check_int "no duplicate keys" (List.length keys)
        (List.length (List.sort_uniq compare keys))

let test_k_diversity_increases_tests () =
  let count k =
    match Model_def.synthesize ~k ~timeout:2.0 ~oracle Dns_models.dname with
    | Ok r -> List.length r.unique_tests
    | Error e -> Alcotest.fail e
  in
  check "k=6 finds at least as many unique tests as k=1" true (count 6 >= count 1)

let test_temperature_zero_no_diversity () =
  let go temperature =
    match
      Model_def.synthesize ~k:3 ~temperature ~timeout:2.0 ~oracle Dns_models.cname
    with
    | Ok r -> r
    | Error e -> Alcotest.fail e
  in
  let cold = go 0.0 in
  (* at tau=0 every model draw is identical, so the union equals any
     single model's tests *)
  let per_model =
    List.map
      (fun (r : Pipeline.model_result) -> List.length (Testcase.dedup r.tests))
      cold.results
  in
  check "tau=0 collapses" true
    (List.for_all (fun n -> n = List.length cold.unique_tests) per_model)

(* ----- DNS adapter ----- *)

let dname_synth = lazy (match synth ~k:4 Dns_models.dname with
  | Ok r -> r
  | Error e -> Alcotest.fail e)

let test_dns_artifacts () =
  let result = Lazy.force dname_synth in
  let with_artifacts =
    List.filter_map (Dns_adapter.artifacts_for ~model_id:"DNAME") result.unique_tests
  in
  check "most tests become zones" true (List.length with_artifacts > 0);
  List.iter
    (fun (zone, query) ->
      check "zone validates" true (Result.is_ok (Eywa_dns.Zone.validate zone));
      check "query in zone" true (Eywa_dns.Zone.in_zone zone query.Eywa_dns.Message.qname))
    with_artifacts

let test_dns_bad_input_skipped () =
  let result = Lazy.force dname_synth in
  List.iter
    (fun (t : Testcase.t) ->
      if t.bad_input then
        check "bad input not replayed" true
          (Dns_adapter.artifacts_for ~model_id:"DNAME" t = None))
    result.unique_tests

let test_dns_difftest_finds_knot_bug () =
  let result = Lazy.force dname_synth in
  let found =
    Dns_adapter.quirks_triggered ~version:Eywa_dns.Impls.Old
      [ ("DNAME", result.unique_tests) ]
  in
  check "knot DNAME owner bug found" true
    (List.mem ("knot", Eywa_dns.Lookup.Dname_name_replaced_by_query) found);
  check "nsd recursion bug found" true
    (List.mem ("nsd", Eywa_dns.Lookup.Dname_not_recursive) found)

let test_dns_current_version_fixes_old_bugs () =
  let result = Lazy.force dname_synth in
  let old_report =
    Dns_adapter.run ~model_id:"DNAME" ~version:Eywa_dns.Impls.Old result.unique_tests
  in
  let cur_report =
    Dns_adapter.run ~model_id:"DNAME" ~version:Eywa_dns.Impls.Current
      result.unique_tests
  in
  check "current version disagrees less" true
    (List.length cur_report.Difftest.tuples <= List.length old_report.Difftest.tuples)

(* ----- BGP adapter ----- *)

let test_bgp_confed_difftest () =
  match synth ~k:4 Bgp_models.confed with
  | Error e -> Alcotest.fail e
  | Ok result ->
      let found =
        Bgp_adapter.quirks_triggered
          [ ("CONFED", result.unique_tests) ]
      in
      check "sub-AS collision found on frr" true
        (List.mem ("frr", Eywa_bgp.Quirks.Confed_sub_as_eq_peer) found);
      check "sub-AS collision found on gobgp" true
        (List.mem ("gobgp", Eywa_bgp.Quirks.Confed_sub_as_eq_peer) found);
      check "sub-AS collision found on batfish" true
        (List.mem ("batfish", Eywa_bgp.Quirks.Confed_sub_as_eq_peer) found);
      check "frr replace-as bug found" true
        (List.mem ("frr", Eywa_bgp.Quirks.Replace_as_confed_broken) found)

let test_bgp_rmap_pl_difftest () =
  match synth ~k:4 Bgp_models.rmap_pl with
  | Error e -> Alcotest.fail e
  | Ok result ->
      check "validity pipe produces bad-input tests" true
        (List.exists (fun (t : Testcase.t) -> t.bad_input) result.unique_tests);
      let found =
        Bgp_adapter.quirks_triggered
          [ ("RMAP-PL", result.unique_tests) ]
      in
      check "frr prefix-list bug found" true
        (List.mem ("frr", Eywa_bgp.Quirks.Prefix_list_ge_match) found)

let test_bgp_rr_only_local_pref () =
  (* all implementations share the reference reflection logic, so RR
     tests can only surface the Batfish local-pref bug (which rides
     along on any eBGP-learned route), never a reflection bug *)
  match synth ~k:2 Bgp_models.rr with
  | Error e -> Alcotest.fail e
  | Ok result ->
      let found =
        Bgp_adapter.quirks_triggered
          [ ("RR", result.unique_tests) ]
      in
      check "only the local-pref quirk can fire" true
        (List.for_all
           (fun (_, q) -> q = Eywa_bgp.Quirks.Local_pref_not_reset_ebgp)
           found)

(* ----- SMTP adapter ----- *)

let test_smtp_end_to_end () =
  match synth ~k:3 Smtp_models.server with
  | Error e -> Alcotest.fail e
  | Ok result -> (
      check "tests produced" true (result.unique_tests <> []);
      match Smtp_adapter.state_graph_for result with
      | Error m -> Alcotest.fail m
      | Ok graph ->
          check "graph covers the protocol states" true
            (List.length (Eywa_stategraph.Stategraph.states graph) >= 6);
          let found = Smtp_adapter.quirks_triggered ~graph result.unique_tests in
          check "aiosmtpd bug found" true
            (List.mem ("aiosmtpd", Eywa_smtp.Machine.Accept_mail_without_helo) found))

(* ----- the protocol dispatch ----- *)

(* One model per protocol: the dispatch's report is the adapter's run,
   on the sink; its root causes are the adapter's attribution through
   the protocol's quirk_to_string; replay needs a stateless protocol. *)
let test_protocol_dispatch () =
  let module Protocol = Eywa_models.Protocol in
  let version = Eywa_dns.Impls.Old in
  let named to_string = List.map (fun (impl, q) -> (impl, to_string q)) in
  let graph_of s =
    match Eywa_models.Stateful_adapter.state_graph_for s with
    | Ok graph -> graph
    | Error e -> Alcotest.fail e
  in
  List.iter
    (fun ((m : Model_def.t), adapter_run, adapter_causes) ->
      match synth ~k:3 m with
      | Error e -> Alcotest.failf "%s: %s" m.id e
      | Ok s -> (
          let tests = s.unique_tests in
          let dones = ref 0 in
          let sink = function
            | Eywa_core.Instrument.Difftest_done _ -> incr dones
            | _ -> ()
          in
          (match Protocol.report ~jobs:2 ~sink ~version m s with
          | Error e -> Alcotest.failf "%s: %s" m.id e
          | Ok report ->
              check (m.id ^ ": report = adapter run") true
                (report = adapter_run s tests);
              check_int (m.id ^ ": one Difftest_done on the sink") 1 !dones);
          (match Protocol.root_causes ~jobs:2 ~version [ (m, s) ] with
          | Error e -> Alcotest.failf "%s: %s" m.id e
          | Ok causes ->
              Alcotest.(check (list (pair string string)))
                (m.id ^ ": root causes = adapter attribution")
                (adapter_causes s tests) causes;
              check (m.id ^ ": some root cause") true (causes <> []));
          match (m.protocol, Protocol.replay ~version m) with
          | ("DNS" | "BGP"), Ok replay ->
              check (m.id ^ ": replay = adapter run") true
                (replay tests = adapter_run s tests)
          | ("SMTP" | "TCP"), Error _ -> ()
          | _ -> Alcotest.failf "%s: replay support" m.id))
    [
      ( Dns_models.cname,
        (fun _ tests -> Dns_adapter.run ~model_id:"CNAME" ~version tests),
        fun _ tests ->
          named Eywa_dns.Lookup.quirk_to_string
            (Dns_adapter.quirks_triggered ~version [ ("CNAME", tests) ]) );
      ( Bgp_models.rr,
        (fun _ tests -> Bgp_adapter.run ~model_id:"RR" tests),
        fun _ tests ->
          named Eywa_bgp.Quirks.to_string
            (Bgp_adapter.quirks_triggered [ ("RR", tests) ]) );
      ( Smtp_models.server,
        (fun s tests -> Smtp_adapter.run ~graph:(graph_of s) tests),
        fun s tests ->
          named Eywa_smtp.Machine.quirk_to_string
            (Smtp_adapter.quirks_triggered ~graph:(graph_of s) tests) );
      ( Eywa_models.Tcp_models.server,
        (fun s tests -> Eywa_models.Tcp_adapter.run ~graph:(graph_of s) tests),
        fun s tests ->
          named Eywa_tcp.Machine.quirk_to_string
            (Eywa_models.Tcp_adapter.quirks_triggered ~graph:(graph_of s) tests) );
    ]

let suite =
  [
    Alcotest.test_case "roster of Table 2" `Quick test_roster;
    Alcotest.test_case "find resolves the TCP extension model" `Quick
      test_find_tcp_extension;
    Alcotest.test_case "every model synthesizes" `Slow test_every_model_synthesizes;
    Alcotest.test_case "unique tests have unique keys" `Quick test_unique_tests_are_unique;
    Alcotest.test_case "k diversity grows the union" `Slow test_k_diversity_increases_tests;
    Alcotest.test_case "tau=0 collapses diversity" `Quick test_temperature_zero_no_diversity;
    Alcotest.test_case "dns: tests become valid zones" `Quick test_dns_artifacts;
    Alcotest.test_case "dns: bad inputs not replayed" `Quick test_dns_bad_input_skipped;
    Alcotest.test_case "dns: DNAME bugs found differentially" `Slow
      test_dns_difftest_finds_knot_bug;
    Alcotest.test_case "dns: fixed versions disagree less" `Slow
      test_dns_current_version_fixes_old_bugs;
    Alcotest.test_case "bgp: confederation bugs found" `Slow test_bgp_confed_difftest;
    Alcotest.test_case "bgp: prefix-list bug found" `Slow test_bgp_rmap_pl_difftest;
    Alcotest.test_case "bgp: RR surfaces only local-pref" `Quick test_bgp_rr_only_local_pref;
    Alcotest.test_case "smtp: stateful end to end" `Slow test_smtp_end_to_end;
    Alcotest.test_case "protocol: dispatch = adapters, one model each" `Slow
      test_protocol_dispatch;
  ]
