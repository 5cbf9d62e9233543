module Bgp = Eywa_bgp
module Difftest = Eywa_difftest.Difftest
module Testcase = Eywa_core.Testcase

let injected_prefix = Bgp.Prefix.v (Int32.shift_left 5l 28) 4

let render_rib rib =
  String.concat " | " (List.map Bgp.Route.to_string rib)

(* ----- scenario construction per model ----- *)

(* CONFED: R2 sits in a confederation; the test chooses the peer AS,
   R2's sub-AS, the confederation id, and whether the peer is a member.
   R2 exports to R3 with local-as replace-as configured, which is the
   FRR replace-as bug surface. *)
let confed_scenario test quirks =
  let peer_as = Bgp_models.test_int test "peer_as" in
  let my_sub_as = Bgp_models.test_int test "my_sub_as" in
  let confed_id = Bgp_models.test_int test "confed_id" in
  let peer_in_confed = Bgp_models.test_bool test "peer_in_confed" in
  let confed =
    Some
      {
        Bgp.Confed.confed_id;
        sub_as = my_sub_as;
        members = (if peer_in_confed then [ my_sub_as; peer_as ] else [ my_sub_as ]);
      }
  in
  let r2 =
    {
      Bgp.Network.rname = "r2"; asn = my_sub_as; confed; cluster_id = 2;
      prefix_lists = []; route_maps = [];
    }
  in
  let r3 =
    { Bgp.Network.rname = "r3"; asn = 7; confed = None; cluster_id = 3;
      prefix_lists = []; route_maps = [] }
  in
  let r2_in =
    { Bgp.Network.peer_as; peer_in_confed; peer_kind = Bgp.Reflect.External;
      import_map = None; export_map = None; replace_as = None }
  in
  let r2_out =
    { Bgp.Network.peer_as = 7; peer_in_confed = false;
      peer_kind = Bgp.Reflect.External; import_map = None; export_map = None;
      replace_as = Some (6, true) }
  in
  let r3_in =
    { Bgp.Network.peer_as = confed_id; peer_in_confed = false;
      peer_kind = Bgp.Reflect.External; import_map = None; export_map = None;
      replace_as = None }
  in
  let injected =
    [ Bgp.Route.v ~as_path:(Bgp.Aspath.prepend peer_as Bgp.Aspath.empty)
        injected_prefix ]
  in
  let session =
    Bgp.Confed.agree ~quirks confed ~local_as:my_sub_as ~peer_as ~peer_in_confed
  in
  let r2_rib, r3_rib =
    Bgp.Network.run_chain ~quirks ~r2 ~r2_in ~r2_out ~r3 ~r3_in ~injected ()
  in
  [
    ("session", Bgp.Confed.session_to_string session);
    ("r2_rib", render_rib r2_rib);
    ("r3_rib", render_rib r3_rib);
  ]

(* RR / RR-RMAP: R2 is a route reflector; the test chooses the peer
   kinds on both sides, and (for RR-RMAP) an export policy from the
   prefix-list entry. Injected routes carry a non-default local-pref so
   the Batfish local-pref bug is observable at R3. *)
let reflect_scenario ~with_policy test quirks =
  let from_kind = Bgp_models.test_peer_type test "from_peer" in
  let to_kind = Bgp_models.test_peer_type test "to_peer" in
  let prefix_lists, route_maps, export_map =
    if with_policy then begin
      match Bgp_models.test_prefix_entry test with
      | None -> ([], [], None)
      | Some entry ->
          ( [ { Bgp.Policy.pl_name = "pl"; entries = [ entry ] } ],
            [
              {
                Bgp.Policy.rm_name = "export";
                stanzas =
                  [
                    {
                      Bgp.Policy.stanza_seq = 10;
                      stanza_permit = true;
                      matches = [ Bgp.Policy.Match_prefix_list "pl" ];
                      sets = [];
                    };
                  ];
              };
            ],
            Some "export" )
    end
    else ([], [], None)
  in
  let kind_as = function
    | Bgp.Reflect.External -> 9  (* eBGP peers are in another AS *)
    | Bgp.Reflect.Client | Bgp.Reflect.Non_client -> 2
  in
  let r2 =
    { Bgp.Network.rname = "r2"; asn = 2; confed = None; cluster_id = 2;
      prefix_lists; route_maps }
  in
  let r3 =
    { Bgp.Network.rname = "r3"; asn = kind_as to_kind; confed = None;
      cluster_id = 3; prefix_lists = []; route_maps = [] }
  in
  let r2_in =
    { Bgp.Network.peer_as = kind_as from_kind; peer_in_confed = false;
      peer_kind = from_kind; import_map = None; export_map = None;
      replace_as = None }
  in
  let r2_out =
    { Bgp.Network.peer_as = kind_as to_kind; peer_in_confed = false;
      peer_kind = to_kind; import_map = None; export_map; replace_as = None }
  in
  let r3_in =
    { Bgp.Network.peer_as = 2; peer_in_confed = false;
      peer_kind = Bgp.Reflect.External; import_map = None; export_map = None;
      replace_as = None }
  in
  let route =
    match Bgp_models.test_route test with
    | Some p -> Bgp.Route.v ~local_pref:200
        ~as_path:(Bgp.Aspath.prepend (kind_as from_kind) Bgp.Aspath.empty) p
    | None ->
        Bgp.Route.v ~local_pref:200
          ~as_path:(Bgp.Aspath.prepend (kind_as from_kind) Bgp.Aspath.empty)
          injected_prefix
  in
  let r2_rib, r3_rib =
    Bgp.Network.run_chain ~quirks ~r2 ~r2_in ~r2_out ~r3 ~r3_in ~injected:[ route ]
      ()
  in
  [ ("r2_rib", render_rib r2_rib); ("r3_rib", render_rib r3_rib) ]

(* RMAP-PL: pure policy evaluation — a route against a one-entry prefix
   list used by a route-map stanza. *)
let policy_scenario test =
  match (Bgp_models.test_route test, Bgp_models.test_prefix_entry test) with
  | Some prefix, Some entry ->
      let route = Bgp.Route.v prefix in
      let pl = { Bgp.Policy.pl_name = "pl"; entries = [ entry ] } in
      let rm =
        {
          Bgp.Policy.rm_name = "rm";
          stanzas =
            [
              {
                Bgp.Policy.stanza_seq = 10;
                stanza_permit = true;
                matches = [ Bgp.Policy.Match_prefix_list "pl" ];
                sets = [ Bgp.Policy.Set_local_pref 150 ];
              };
            ];
        }
      in
      Some
        (fun quirks ->
          [
            ( "policy",
              match
                Bgp.Policy.apply_route_map ~quirks ~prefix_lists:[ pl ] rm route
              with
              | None -> "deny"
              | Some r -> "permit " ^ Bgp.Route.to_string r );
          ])
  | _, _ -> None

(* A test's scenario, replayed under a quirk set; [None] when the model
   has none for the test. *)
let scenario ~model_id test =
  match model_id with
  | "CONFED" -> Some (confed_scenario test)
  | "RR" -> Some (reflect_scenario ~with_policy:false test)
  | "RR-RMAP" -> Some (reflect_scenario ~with_policy:true test)
  | "RMAP-PL" -> policy_scenario test
  | _ -> None

(* The injector on R1 is ExaBGP — an independent, correct
   implementation that participates in the experiment. Including its
   view as an observation means a bug shared by all three tested
   implementations (the confederation sub-AS collision affects FRR,
   GoBGP and Batfish alike) still surfaces as a disagreement. *)
let impls =
  ("exabgp", [])
  :: List.map
       (fun impl -> (impl.Bgp.Impls.name, Bgp.Impls.quirks impl))
       Bgp.Impls.all

let prepare ~model_id (test : Testcase.t) =
  if test.bad_input || test.error <> None then None else scenario ~model_id test

let observations_for ~model_id test =
  Option.map (Difftest.observe ~impls ~render:Fun.id) (prepare ~model_id test)

let run ?jobs ?sink ~model_id tests =
  Difftest.run ?jobs ?sink ~label:model_id ~impls ~render:Fun.id
    ~prepare:(prepare ~model_id) tests

(* A disagreement anywhere prompts attribution for every implementation:
   majority voting alone cannot name the culprit when the bug is shared. *)
let quirks_triggered ?jobs model_ids_and_tests =
  Difftest.attribute ?jobs
    ~suspects:(fun _ ->
      List.map (fun impl -> impl.Bgp.Impls.name) Bgp.Impls.all)
    ~impls ~render:Fun.id
    ~prepare:(fun (model_id, test) -> prepare ~model_id test)
    (List.concat_map
       (fun (model_id, tests) -> List.map (fun t -> (model_id, t)) tests)
       model_ids_and_tests)
