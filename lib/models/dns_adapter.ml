module Dns = Eywa_dns
module Difftest = Eywa_difftest.Difftest
module Testcase = Eywa_core.Testcase

let render_rrs rrs =
  String.concat " | "
    (List.sort_uniq compare (List.map Dns.Rr.to_string rrs))

let fields_of_outcome = function
  | Dns.Message.Crash m ->
      [
        ("crash", m); ("rcode", ""); ("aa", ""); ("answer", ""); ("authority", "");
        ("additional", "");
      ]
  | Dns.Message.Reply r ->
      [
        ("crash", "");
        ("rcode", Dns.Message.rcode_to_string r.rcode);
        ("aa", string_of_bool r.aa);
        ("answer", render_rrs r.answer);
        ("authority", render_rrs r.authority);
        ("additional", render_rrs r.additional);
      ]

(* Lookup-style models get the delegation so referral/glue behaviour is
   reachable; per-record models keep the minimal zone. *)
let with_delegation model_id =
  match model_id with
  | "FULLLOOKUP" | "AUTH" -> true
  | _ -> false

let artifacts_for ~model_id (test : Testcase.t) =
  if test.bad_input || test.error <> None then None
  else begin
    let records =
      match Dns_models.test_record test with
      | Some r -> [ r ]
      | None -> Dns_models.test_zone_records test
    in
    if records = [] then None
    else begin
      let zone =
        Dns.Zonefile.build_zone ~extra_delegation:(with_delegation model_id) records
      in
      let qtype =
        match model_id with
        | "FULLLOOKUP" | "RCODE" | "AUTH" -> Dns_models.test_qtype test
        | _ -> Dns.Rr.A
      in
      let query = Dns.Zonefile.build_query (Dns_models.test_query test) qtype in
      Some (zone, query)
    end
  end

let impls version =
  List.map
    (fun impl -> (impl.Dns.Impls.name, Dns.Impls.quirks impl version))
    Dns.Impls.all

(* One serving path for difftest and attribution: every implementation
   is the reference engine under its own quirk set. *)
let prepare ~model_id test =
  Option.map
    (fun (zone, query) quirks -> Dns.Lookup.lookup ~quirks zone query)
    (artifacts_for ~model_id test)

let run ?jobs ?sink ?on_test ~model_id ~version tests =
  Difftest.run ?jobs ?sink ?on_test ~label:model_id ~impls:(impls version)
    ~render:fields_of_outcome ~prepare:(prepare ~model_id) tests

let quirks_triggered ?jobs ~version model_ids_and_tests =
  Difftest.attribute ?jobs ~suspects:Difftest.dissenters ~impls:(impls version)
    ~render:fields_of_outcome
    ~prepare:(fun (model_id, test) -> prepare ~model_id test)
    (List.concat_map
       (fun (model_id, tests) -> List.map (fun t -> (model_id, t)) tests)
       model_ids_and_tests)
