open Eywa_bgp
module Quirkset = Eywa_quirkset.Quirkset

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let pfx s = match Prefix.of_string s with Ok p -> p | Error m -> Alcotest.fail m

(* ----- prefixes ----- *)

let test_prefix_parse_print () =
  check_str "round" "10.0.0.0/8" (Prefix.to_string (pfx "10.0.0.0/8"));
  check_str "host bits masked" "10.0.0.0/8" (Prefix.to_string (pfx "10.1.2.3/8"));
  check "bad text" true (Result.is_error (Prefix.of_string "10.0.0.0"));
  check "bad octet" true (Result.is_error (Prefix.of_string "300.0.0.0/8"));
  check "bad length" true (Result.is_error (Prefix.of_string "10.0.0.0/40"))

let test_prefix_contains () =
  check "super contains sub" true (Prefix.contains (pfx "10.0.0.0/8") (pfx "10.1.0.0/16"));
  check "not the other way" false (Prefix.contains (pfx "10.1.0.0/16") (pfx "10.0.0.0/8"));
  check "disjoint" false (Prefix.contains (pfx "10.0.0.0/8") (pfx "11.0.0.0/16"));
  check "self" true (Prefix.contains (pfx "10.0.0.0/8") (pfx "10.0.0.0/8"));
  check "default contains all" true (Prefix.contains (pfx "0.0.0.0/0") (pfx "192.168.1.0/24"))

let test_prefix_member () =
  check "member" true (Prefix.member (pfx "10.0.0.0/8") 0x0A0B0C0Dl);
  check "not member" false (Prefix.member (pfx "10.0.0.0/8") 0x0B000000l)

let prop_prefix_roundtrip =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:200 ~name:"prefix to_string . of_string round trips"
       QCheck2.Gen.(pair (map Int32.of_int (int_range 0 0x3FFFFFFF)) (int_range 0 32))
       (fun (addr, len) ->
         let p = Prefix.v addr len in
         match Prefix.of_string (Prefix.to_string p) with
         | Ok p' -> Prefix.equal p p'
         | Error _ -> false))

(* ----- AS paths ----- *)

let test_aspath_ops () =
  let p = Aspath.prepend 30 (Aspath.prepend 20 (Aspath.prepend 10 Aspath.empty)) in
  check_int "seq length" 3 (Aspath.length p);
  check "contains" true (Aspath.contains 20 p);
  check "not contains" false (Aspath.contains 99 p);
  check_str "render" "30 20 10" (Aspath.to_string p)

let test_aspath_confed () =
  let p = Aspath.prepend_confed 65001 (Aspath.prepend 10 Aspath.empty) in
  check "has confed segments" true (Aspath.has_confed_segments p);
  check_int "confed does not count" 1 (Aspath.length p);
  let stripped = Aspath.strip_confed p in
  check "stripped" false (Aspath.has_confed_segments stripped);
  check_int "seq kept" 1 (Aspath.length stripped)

let test_aspath_replace () =
  let p = Aspath.prepend 10 (Aspath.prepend 20 Aspath.empty) in
  let p' = Aspath.replace_as ~old_as:20 ~new_as:65000 p in
  check "replaced" true (Aspath.contains 65000 p');
  check "old gone" false (Aspath.contains 20 p')

let test_aspath_set_counts_one () =
  let p = [ Aspath.Seq [ 1; 2 ]; Aspath.Set [ 3; 4; 5 ] ] in
  check_int "set counts one" 3 (Aspath.length p)

(* ----- routes ----- *)

let test_route_decision () =
  let r ~lp ~path = Route.v ~local_pref:lp ~as_path:path (pfx "10.0.0.0/8") in
  let short = Aspath.prepend 1 Aspath.empty in
  let long = Aspath.prepend 2 (Aspath.prepend 1 Aspath.empty) in
  check "higher local-pref wins" true (Route.better (r ~lp:200 ~path:long) (r ~lp:100 ~path:short));
  check "shorter path wins at equal lp" true
    (Route.better (r ~lp:100 ~path:short) (r ~lp:100 ~path:long));
  check "igp beats incomplete" true
    (Route.better
       (Route.v ~origin:Route.Igp (pfx "10.0.0.0/8"))
       (Route.v ~origin:Route.Incomplete (pfx "10.0.0.0/8")));
  check "lower med wins" true
    (Route.better (Route.v ~med:5 (pfx "10.0.0.0/8")) (Route.v ~med:9 (pfx "10.0.0.0/8")))

(* ----- policy ----- *)

let entry ?(permit = true) ?(ge = None) ?(le = None) p =
  { Policy.seq = 10; permit; prefix = pfx p; ge; le }

let test_prefix_list_exact () =
  check "exact match" true (Policy.entry_matches (entry "10.0.0.0/8") (pfx "10.0.0.0/8"));
  check "longer no match without le" false
    (Policy.entry_matches (entry "10.0.0.0/8") (pfx "10.1.0.0/16"))

let test_prefix_list_le_ge () =
  let e = entry ~ge:(Some 16) ~le:(Some 24) "10.0.0.0/8" in
  check "inside range" true (Policy.entry_matches e (pfx "10.1.0.0/20"));
  check "below ge" false (Policy.entry_matches e (pfx "10.0.0.0/12"));
  check "above le" false (Policy.entry_matches e (pfx "10.1.1.0/28"));
  check "outside prefix" false (Policy.entry_matches e (pfx "11.0.0.0/20"))

let test_prefix_list_first_match () =
  let pl =
    {
      Policy.pl_name = "pl";
      entries =
        [
          { (entry ~permit:false "10.0.0.0/8") with Policy.seq = 5 };
          { (entry "10.0.0.0/8") with Policy.seq = 10 };
        ];
    }
  in
  check "first (deny) entry wins" false (Policy.prefix_list_permits pl (pfx "10.0.0.0/8"));
  check "no match denies" false (Policy.prefix_list_permits pl (pfx "11.0.0.0/8"))

let test_policy_quirk_ge_match () =
  (* FRR: an exact entry behaves as >= *)
  let e = entry "10.0.0.0/8" in
  check "reference exact only" false (Policy.entry_matches e (pfx "10.1.0.0/16"));
  check "frr quirk matches longer" true
    (Policy.entry_matches
       ~quirks:(Quirkset.of_list [ Quirks.Prefix_list_ge_match ])
       e (pfx "10.1.0.0/16"))

let test_policy_quirk_zero_masklength () =
  let e = entry ~ge:(Some 8) ~le:(Some 24) "0.0.0.0/0" in
  (* gobgp quirk: such an entry matches everything, even shorter than ge *)
  check "reference respects ge" false (Policy.entry_matches e (pfx "10.0.0.0/4"));
  check "gobgp quirk matches all" true
    (Policy.entry_matches
       ~quirks:(Quirkset.of_list [ Quirks.Prefix_set_zero_masklength ])
       e (pfx "10.0.0.0/4"))

let test_route_map () =
  let pl = { Policy.pl_name = "pl"; entries = [ entry "10.0.0.0/8" ] } in
  let rm =
    {
      Policy.rm_name = "rm";
      stanzas =
        [
          { Policy.stanza_seq = 10; stanza_permit = true;
            matches = [ Policy.Match_prefix_list "pl" ];
            sets = [ Policy.Set_local_pref 250; Policy.Set_community (65000, 1) ] };
        ];
    }
  in
  (match Policy.apply_route_map ~prefix_lists:[ pl ] rm (Route.v (pfx "10.0.0.0/8")) with
  | Some r ->
      check_int "local pref set" 250 r.Route.local_pref;
      check "community added" true (List.mem (65000, 1) r.Route.communities)
  | None -> Alcotest.fail "expected permit");
  check "non-matching route denied" true
    (Policy.apply_route_map ~prefix_lists:[ pl ] rm (Route.v (pfx "11.0.0.0/8")) = None)

let test_route_map_deny_stanza () =
  let pl = { Policy.pl_name = "pl"; entries = [ entry "10.0.0.0/8" ] } in
  let rm =
    {
      Policy.rm_name = "rm";
      stanzas =
        [
          { Policy.stanza_seq = 5; stanza_permit = false;
            matches = [ Policy.Match_prefix_list "pl" ]; sets = [] };
          { Policy.stanza_seq = 10; stanza_permit = true;
            matches = [ Policy.Match_any ]; sets = [] };
        ];
    }
  in
  check "deny stanza stops" true
    (Policy.apply_route_map ~prefix_lists:[ pl ] rm (Route.v (pfx "10.0.0.0/8")) = None);
  check "others fall through to permit any" true
    (Policy.apply_route_map ~prefix_lists:[ pl ] rm (Route.v (pfx "11.0.0.0/8")) <> None)

(* ----- confederations ----- *)

let confed = Some { Confed.confed_id = 100; sub_as = 65001; members = [ 65001; 65002 ] }

let test_confed_classify () =
  let c ?quirks peer_as peer_in_confed =
    Confed.classify ?quirks:(Option.map Quirkset.of_list quirks) confed
      ~local_as:65001 ~peer_as ~peer_in_confed
  in
  check "same sub-as ibgp" true (c 65001 true = Confed.Ibgp);
  check "other sub-as confed-ebgp" true (c 65002 true = Confed.Ebgp_confed);
  check "external ebgp" true (c 200 false = Confed.Ebgp);
  check "collision is still ebgp in reference" true (c 65001 false = Confed.Ebgp);
  check "collision becomes ibgp under the quirk" true
    (c ~quirks:[ Quirks.Confed_sub_as_eq_peer ] 65001 false = Confed.Ibgp)

let test_confed_agree_mismatch () =
  check "quirk causes a session mismatch" true
    (Confed.agree
       ~quirks:(Quirkset.of_list [ Quirks.Confed_sub_as_eq_peer ])
       confed ~local_as:65001 ~peer_as:65001 ~peer_in_confed:false
    = Confed.Session_mismatch);
  check "reference agrees ebgp" true
    (Confed.agree confed ~local_as:65001 ~peer_as:65001 ~peer_in_confed:false
    = Confed.Ebgp)

let test_confed_export_paths () =
  let path = Aspath.prepend 10 Aspath.empty in
  let over_confed =
    Confed.export_path confed Confed.Ebgp_confed ~local_as:65001 path
  in
  check "confed segment added" true (Aspath.has_confed_segments over_confed);
  let out = Confed.export_path confed Confed.Ebgp ~local_as:65001 over_confed in
  check "confed stripped on true eBGP" false (Aspath.has_confed_segments out);
  check "confed id shown" true (Aspath.contains 100 out);
  let ibgp = Confed.export_path confed Confed.Ibgp ~local_as:65001 path in
  check "ibgp unchanged" true (Aspath.equal ibgp path)

let test_confed_replace_as () =
  let path = Aspath.prepend 65001 Aspath.empty in
  let out =
    Confed.export_path None Confed.Ebgp ~local_as:65001 ~replace_as:(600, true) path
  in
  check "replaced" true (Aspath.contains 600 out && not (Aspath.contains 65001 out));
  let broken =
    Confed.export_path
      ~quirks:(Quirkset.of_list [ Quirks.Replace_as_confed_broken ])
      confed Confed.Ebgp ~local_as:65001 ~replace_as:(600, true) path
  in
  check "quirk ignores replace-as with confeds" true (Aspath.contains 65001 broken)

(* ----- route reflection ----- *)

let test_reflect_rules () =
  let t from_ to_ = Reflect.should_reflect ~from_ ~to_ in
  check "ebgp to all" true (t Reflect.External Reflect.Non_client);
  check "client to all" true (t Reflect.Client Reflect.Non_client);
  check "non-client to client" true (t Reflect.Non_client Reflect.Client);
  check "non-client to external" true (t Reflect.Non_client Reflect.External);
  check "non-client to non-client blocked" false (t Reflect.Non_client Reflect.Non_client)

let test_reflect_cluster_loop () =
  let route = Route.v (pfx "10.0.0.0/8") in
  match Reflect.reflect ~cluster_id:7 ~from_:Reflect.Client ~to_:Reflect.Non_client route with
  | None -> Alcotest.fail "should reflect"
  | Some tagged -> (
      check "cluster tag added" true (List.mem (7, 7) tagged.Route.communities);
      (* reflecting the tagged route again through the same cluster drops it *)
      match Reflect.reflect ~cluster_id:7 ~from_:Reflect.Client ~to_:Reflect.Non_client tagged with
      | None -> ()
      | Some _ -> Alcotest.fail "cluster loop not detected")

(* ----- network chain ----- *)

let plain_router name asn =
  { Network.rname = name; asn; confed = None; cluster_id = 1;
    prefix_lists = []; route_maps = [] }

let neighbor ?(kind = Reflect.External) ?(import_map = None) ?(export_map = None)
    ?(replace_as = None) peer_as =
  { Network.peer_as; peer_in_confed = false; peer_kind = kind;
    import_map; export_map; replace_as }

let test_chain_basic () =
  let r2 = plain_router "r2" 2 and r3 = plain_router "r3" 3 in
  let injected = [ Route.v ~as_path:(Aspath.prepend 1 Aspath.empty) (pfx "10.0.0.0/8") ] in
  let r2_rib, r3_rib =
    Network.run_chain ~r2 ~r2_in:(neighbor 1) ~r2_out:(neighbor 3) ~r3
      ~r3_in:(neighbor 2) ~injected ()
  in
  check_int "r2 learned it" 1 (List.length r2_rib);
  check_int "r3 learned it" 1 (List.length r3_rib);
  let r3_route = List.hd r3_rib in
  check "path prepended at r2" true (Aspath.contains 2 r3_route.Route.as_path)

let test_chain_loop_detection () =
  let r2 = plain_router "r2" 2 and r3 = plain_router "r3" 3 in
  (* the injected route already carries AS 2 *)
  let injected = [ Route.v ~as_path:(Aspath.prepend 2 Aspath.empty) (pfx "10.0.0.0/8") ] in
  let r2_rib, _ =
    Network.run_chain ~r2 ~r2_in:(neighbor 1) ~r2_out:(neighbor 3) ~r3
      ~r3_in:(neighbor 2) ~injected ()
  in
  check "looped route dropped" true (r2_rib = [])

let test_chain_local_pref_reset () =
  let r2 = plain_router "r2" 2 and r3 = plain_router "r3" 3 in
  let injected = [ Route.v ~local_pref:250 ~as_path:(Aspath.prepend 1 Aspath.empty) (pfx "10.0.0.0/8") ] in
  let run quirks =
    Network.run_chain ~quirks:(Quirkset.of_list quirks) ~r2 ~r2_in:(neighbor 1)
      ~r2_out:(neighbor 3) ~r3 ~r3_in:(neighbor 2) ~injected ()
  in
  let reference, _ = run [] in
  let batfish, _ = run [ Quirks.Local_pref_not_reset_ebgp ] in
  check_int "reference resets to 100" 100 (List.hd reference).Route.local_pref;
  check_int "quirk keeps 250" 250 (List.hd batfish).Route.local_pref

let test_chain_session_mismatch_blocks () =
  let r2 =
    { (plain_router "r2" 65001) with
      Network.confed = Some { Confed.confed_id = 100; sub_as = 65001; members = [ 65001 ] } }
  in
  let r3 = plain_router "r3" 9 in
  let injected = [ Route.v ~as_path:(Aspath.prepend 7 Aspath.empty) (pfx "10.0.0.0/8") ] in
  (* the in-neighbor is external but its AS collides with our sub-AS *)
  let collide = { (neighbor 65001) with Network.peer_in_confed = false } in
  let r2_rib, _ =
    Network.run_chain
      ~quirks:(Quirkset.of_list [ Quirks.Confed_sub_as_eq_peer ])
      ~r2 ~r2_in:collide
      ~r2_out:(neighbor 9) ~r3 ~r3_in:(neighbor 100) ~injected ()
  in
  check "nothing received over a mismatched session" true (r2_rib = []);
  let healthy, _ =
    Network.run_chain ~r2 ~r2_in:collide ~r2_out:(neighbor 9) ~r3
      ~r3_in:(neighbor 100) ~injected ()
  in
  check "reference receives the route" true (healthy <> [])

let test_best_rib () =
  let good = Route.v ~local_pref:200 (pfx "10.0.0.0/8") in
  let bad = Route.v ~local_pref:100 (pfx "10.0.0.0/8") in
  let other = Route.v (pfx "11.0.0.0/8") in
  let rib = Network.best_rib [ bad; other; good ] in
  check_int "one per prefix" 2 (List.length rib);
  check "best kept" true (List.exists (fun (r : Route.t) -> r.local_pref = 200) rib)

let test_impls_catalog () =
  check_int "three implementations" 3 (List.length Impls.all);
  check_int "seven Table 3 BGP rows" 7 (List.length Impls.bug_catalog);
  check "frr has replace-as bug" true
    (match Impls.find "frr" with
    | Some impl -> List.mem Quirks.Replace_as_confed_broken (Impls.quirks impl)
    | None -> false)

(* random three-router chains: any configuration, policy and route *)

let gen_asn = QCheck2.Gen.oneofl [ 1; 2; 7; 9; 100; 65001 ]

let gen_prefix =
  QCheck2.Gen.(
    map2
      (fun hi len -> Prefix.v (Int32.shift_left (Int32.of_int hi) 24) len)
      (oneofl [ 0; 10; 11 ])
      (oneofl [ 0; 4; 8; 12; 16 ]))

let gen_entry =
  QCheck2.Gen.(
    map4
      (fun permit prefix ge le -> { Policy.seq = 10; permit; prefix; ge; le })
      bool gen_prefix
      (opt (oneofl [ 4; 8; 16 ]))
      (opt (oneofl [ 8; 16; 24 ])))

let gen_router rname =
  QCheck2.Gen.(
    map4
      (fun asn confed entries stanza_permit ->
        {
          Network.rname;
          asn;
          confed;
          cluster_id = 1;
          prefix_lists = [ { Policy.pl_name = "pl"; entries } ];
          route_maps =
            [
              {
                Policy.rm_name = "rm";
                stanzas =
                  [
                    {
                      Policy.stanza_seq = 10;
                      stanza_permit;
                      matches = [ Policy.Match_prefix_list "pl" ];
                      sets = [ Policy.Set_local_pref 150 ];
                    };
                  ];
              };
            ];
        })
      gen_asn
      (opt
         (map2
            (fun confed_id sub_as -> { Confed.confed_id; sub_as; members = [ sub_as ] })
            (oneofl [ 7; 100 ])
            gen_asn))
      (list_size (int_range 1 2) gen_entry)
      bool)

let gen_neighbor =
  QCheck2.Gen.(
    map4
      (fun peer_as peer_in_confed peer_kind (import_map, export_map, replace_as) ->
        { Network.peer_as; peer_in_confed; peer_kind; import_map; export_map; replace_as })
      gen_asn bool
      (oneofl [ Reflect.External; Reflect.Client; Reflect.Non_client ])
      (triple (opt (pure "rm")) (opt (pure "rm")) (opt (map (fun b -> (6, b)) bool))))

let gen_route =
  QCheck2.Gen.(
    map3
      (fun prefix local_pref asn ->
        Route.v ~local_pref ~as_path:(Aspath.prepend asn Aspath.empty) prefix)
      gen_prefix
      (oneofl [ 100; 200 ])
      gen_asn)

let prop_unconsulted_quirks_inert =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:300
       ~name:"network: a quirk the run did not consult cannot change it"
       QCheck2.Gen.(
         quad
           (pair (gen_router "r2") (gen_router "r3"))
           (triple gen_neighbor gen_neighbor gen_neighbor)
           (list_size (int_range 1 3) gen_route)
           (Inert.gen_subset Quirks.all))
       (fun ((r2, r3), (r2_in, r2_out, r3_in), injected, quirks) ->
         Inert.unconsulted_are_inert ~all:Quirks.all
           (fun quirks ->
             ( Confed.agree ~quirks r2.Network.confed ~local_as:r2.asn
                 ~peer_as:r2_in.Network.peer_as ~peer_in_confed:r2_in.peer_in_confed,
               Network.run_chain ~quirks ~r2 ~r2_in ~r2_out ~r3 ~r3_in ~injected () ))
           quirks))

let suite =
  [
    Alcotest.test_case "prefix: parse and print" `Quick test_prefix_parse_print;
    Alcotest.test_case "prefix: containment" `Quick test_prefix_contains;
    Alcotest.test_case "prefix: membership" `Quick test_prefix_member;
    prop_prefix_roundtrip;
    Alcotest.test_case "aspath: sequence operations" `Quick test_aspath_ops;
    Alcotest.test_case "aspath: confederation segments" `Quick test_aspath_confed;
    Alcotest.test_case "aspath: replace-as" `Quick test_aspath_replace;
    Alcotest.test_case "aspath: AS_SET length" `Quick test_aspath_set_counts_one;
    Alcotest.test_case "route: decision process" `Quick test_route_decision;
    Alcotest.test_case "policy: exact prefix-list entries" `Quick test_prefix_list_exact;
    Alcotest.test_case "policy: le/ge ranges" `Quick test_prefix_list_le_ge;
    Alcotest.test_case "policy: first-match" `Quick test_prefix_list_first_match;
    Alcotest.test_case "policy: FRR ge-match quirk" `Quick test_policy_quirk_ge_match;
    Alcotest.test_case "policy: GoBGP zero-masklength quirk" `Quick
      test_policy_quirk_zero_masklength;
    Alcotest.test_case "policy: route maps apply sets" `Quick test_route_map;
    Alcotest.test_case "policy: deny stanzas" `Quick test_route_map_deny_stanza;
    Alcotest.test_case "confed: session classification" `Quick test_confed_classify;
    Alcotest.test_case "confed: §4.3 session mismatch" `Quick test_confed_agree_mismatch;
    Alcotest.test_case "confed: export path updates" `Quick test_confed_export_paths;
    Alcotest.test_case "confed: replace-as and its quirk" `Quick test_confed_replace_as;
    Alcotest.test_case "reflect: propagation rules" `Quick test_reflect_rules;
    Alcotest.test_case "reflect: cluster loop protection" `Quick test_reflect_cluster_loop;
    Alcotest.test_case "network: basic chain" `Quick test_chain_basic;
    Alcotest.test_case "network: AS-path loop detection" `Quick test_chain_loop_detection;
    Alcotest.test_case "network: eBGP local-pref reset" `Quick test_chain_local_pref_reset;
    Alcotest.test_case "network: mismatched sessions block routes" `Quick
      test_chain_session_mismatch_blocks;
    Alcotest.test_case "network: best rib" `Quick test_best_rib;
    prop_unconsulted_quirks_inert;
    Alcotest.test_case "impls: catalog" `Quick test_impls_catalog;
  ]
