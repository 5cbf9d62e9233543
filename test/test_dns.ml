open Eywa_dns
module Quirkset = Eywa_quirkset.Quirkset

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let n = Name.of_string

(* ----- names ----- *)

let test_name_parse () =
  check "labels" true (n "a.b.test." = [ "a"; "b"; "test" ]);
  check "no trailing dot needed" true (n "a.b" = [ "a"; "b" ]);
  check "empty labels dropped" true (n "a..b." = [ "a"; "b" ]);
  check "root" true (n "." = []);
  check_str "to_string" "a.b." (Name.to_string [ "a"; "b" ]);
  check_str "root prints as dot" "." (Name.to_string [])

let test_name_suffix () =
  check "suffix" true (Name.is_suffix ~suffix:(n "test.") (n "a.test."));
  check "equal counts" true (Name.is_suffix ~suffix:(n "a.test.") (n "a.test."));
  check "not proper when equal" false
    (Name.is_proper_suffix ~suffix:(n "a.test.") (n "a.test."));
  check "proper" true (Name.is_proper_suffix ~suffix:(n "test.") (n "a.test."));
  check "non-suffix" false (Name.is_suffix ~suffix:(n "other.") (n "a.test."))

let test_name_strip_append () =
  check "strip" true (Name.strip_suffix ~suffix:(n "test.") (n "a.b.test.") = Some [ "a"; "b" ]);
  check "strip non-suffix" true (Name.strip_suffix ~suffix:(n "x.") (n "a.test.") = None);
  check "append" true (Name.append [ "a" ] (n "test.") = n "a.test.")

let test_name_wildcard () =
  check "is wildcard" true (Name.is_wildcard (n "*.test."));
  check "bare star" true (Name.is_wildcard (n "*"));
  check "plain not" false (Name.is_wildcard (n "a.test."));
  check "matches deeper" true (Name.wildcard_matches ~wildcard:(n "*.test.") (n "a.test."));
  check "matches much deeper" true
    (Name.wildcard_matches ~wildcard:(n "*.test.") (n "a.b.test."));
  check "does not match base" false
    (Name.wildcard_matches ~wildcard:(n "*.test.") (n "test."));
  check "does not match self" false
    (Name.wildcard_matches ~wildcard:(n "*.test.") (n "*.test."))

let test_name_substitute () =
  check "dname rewrite" true
    (Name.substitute_suffix ~old_suffix:(n "b.test.") ~new_suffix:(n "c.test.")
       (n "a.b.test.")
    = Some (n "a.c.test."));
  check "not applicable at owner" true
    (Name.substitute_suffix ~old_suffix:(n "b.test.") ~new_suffix:(n "c.test.")
       (n "b.test.")
    = None)

let prop_name_roundtrip =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:200 ~name:"name of_string . to_string round trips"
       QCheck2.Gen.(list_size (int_range 0 5) (oneofl [ "a"; "b"; "abc"; "*" ]))
       (fun labels -> Name.of_string (Name.to_string labels) = labels))

let prop_strip_append =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:200 ~name:"strip_suffix inverts append"
       QCheck2.Gen.(pair
          (list_size (int_range 0 3) (oneofl [ "a"; "b" ]))
          (list_size (int_range 0 3) (oneofl [ "c"; "d" ])))
       (fun (prefix, suffix) ->
         Name.strip_suffix ~suffix (Name.append prefix suffix) = Some prefix))

(* ----- records ----- *)

(* Small pools, so equal pairs turn up; every string is a fresh copy,
   so equality never rests on sharing. *)
let copy_string s = Bytes.to_string (Bytes.of_string s)
let gen_fresh pool = QCheck2.Gen.map copy_string (QCheck2.Gen.oneofl pool)
let gen_rr_name = QCheck2.Gen.(list_size (int_range 0 2) (gen_fresh [ "a"; "b"; "" ]))

let gen_rr =
  QCheck2.Gen.(
    map3 Rr.v gen_rr_name
      (oneofl [ Rr.A; Rr.AAAA; Rr.NS; Rr.TXT; Rr.CNAME; Rr.DNAME; Rr.SOA ])
      (oneof
         [
           map (fun n -> Rr.Target n) gen_rr_name;
           map (fun s -> Rr.Address s) (gen_fresh [ "a"; "1" ]);
           map (fun s -> Rr.Text s) (gen_fresh [ "a"; "1" ]);
           pure Rr.Soa_data;
         ]))

let prop_rr_equal_structural =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:1000 ~name:"Rr.equal and Name.equal agree with (=)"
       QCheck2.Gen.(pair gen_rr gen_rr)
       (fun (a, b) ->
         let copy (r : Rr.t) =
           Rr.v (List.map copy_string r.owner) r.rtype
             (match r.rdata with
             | Rr.Target n -> Rr.Target (List.map copy_string n)
             | Rr.Address s -> Rr.Address (copy_string s)
             | Rr.Text s -> Rr.Text (copy_string s)
             | Rr.Soa_data -> Rr.Soa_data)
         in
         Rr.equal a b = Stdlib.( = ) a b
         && Rr.equal a (copy a)
         && Name.equal a.owner b.owner = Stdlib.( = ) a.owner b.owner))

let test_rr_to_string_txt () =
  let r = Rr.v (n "t.test.") Rr.TXT (Rr.Text "say \"hi\" \\ caf\xc3\xa9 \xff") in
  check "TXT rdata quoted and escaped" true
    (Rr.to_string r = "t.test. TXT \"say \\\"hi\\\" \\\\ caf\\195\\169 \\255\"")

(* ----- zones ----- *)

let soa = Rr.v (n "test.") Rr.SOA Rr.Soa_data
let apex_ns = Rr.v (n "test.") Rr.NS (Rr.Target (n "ns1.outside.edu."))

let zone records = Zone.v (n "test.") ([ soa; apex_ns ] @ records)

let test_zone_basics () =
  let z = zone [ Rr.v (n "a.test.") Rr.A (Rr.Address "10.0.0.1") ] in
  check_int "records at a.test." 1 (List.length (Zone.records_at z (n "a.test.")));
  check "in zone" true (Zone.in_zone z (n "b.a.test."));
  check "out of zone" false (Zone.in_zone z (n "a.example."));
  check "node exists" true (Zone.node_exists z (n "a.test."));
  check "ent exists" false (Zone.node_exists z (n "b.test."))

let test_zone_ent () =
  let z = zone [ Rr.v (n "a.b.test.") Rr.A (Rr.Address "10.0.0.1") ] in
  check "b.test. is an empty non-terminal" true (Zone.node_exists z (n "b.test."))

let test_zone_delegation () =
  let z =
    zone
      [
        Rr.v (n "child.test.") Rr.NS (Rr.Target (n "ns.child.test."));
        Rr.v (n "ns.child.test.") Rr.A (Rr.Address "10.0.0.53");
      ]
  in
  (match Zone.delegation_of z (n "x.child.test.") with
  | Some (cut, ns_rrs) ->
      check "cut owner" true (Name.equal cut (n "child.test."));
      check_int "one NS" 1 (List.length ns_rrs)
  | None -> Alcotest.fail "expected a delegation");
  check "no delegation above the cut" true (Zone.delegation_of z (n "a.test.") = None);
  check "apex NS is not a delegation" true (Zone.delegation_of z (n "test.") = None)

let test_zone_glue () =
  let z =
    zone
      [
        Rr.v (n "child.test.") Rr.NS (Rr.Target (n "ns.sib.test."));
        Rr.v (n "ns.sib.test.") Rr.A (Rr.Address "10.0.0.53");
      ]
  in
  let glue = Zone.glue_for z [ n "ns.sib.test." ] in
  check_int "sibling glue found" 1 (List.length glue)

let test_zone_wildcard_ordering () =
  let z =
    zone
      [
        Rr.v (n "*.test.") Rr.TXT (Rr.Text "shallow");
        Rr.v (n "*.a.test.") Rr.TXT (Rr.Text "deep");
      ]
  in
  match Zone.wildcards_matching z (n "x.a.test.") with
  | first :: _ :: _ -> check "deepest first" true (Name.equal first.Rr.owner (n "*.a.test."))
  | _ -> Alcotest.fail "expected two wildcard matches"

let test_zone_validate () =
  check "valid" true (Result.is_ok (Zone.validate (zone [])));
  check "no soa" true
    (Result.is_error (Zone.validate (Zone.v (n "test.") [ apex_ns ])));
  check "no apex ns" true
    (Result.is_error (Zone.validate (Zone.v (n "test.") [ soa ])));
  check "out of zone record" true
    (Result.is_error
       (Zone.validate (zone [ Rr.v (n "a.example.") Rr.A (Rr.Address "1.1.1.1") ])));
  check "duplicates" true
    (Result.is_error
       (Zone.validate
          (zone
             [
               Rr.v (n "a.test.") Rr.A (Rr.Address "1.1.1.1");
               Rr.v (n "a.test.") Rr.A (Rr.Address "1.1.1.1");
             ])))

(* ----- zone files ----- *)

let test_zonefile_roundtrip () =
  let z =
    zone
      [
        Rr.v (n "a.test.") Rr.A (Rr.Address "10.0.0.1");
        Rr.v (n "*.test.") Rr.DNAME (Rr.Target (n "a.a.test."));
        Rr.v (n "t.test.") Rr.TXT (Rr.Text "hello");
      ]
  in
  match Zonefile.parse (Zonefile.print z) with
  | Ok z' -> check "round trip" true (z = z')
  | Error m -> Alcotest.fail m

let test_zonefile_parse_errors () =
  check "no origin" true (Result.is_error (Zonefile.parse "a.test. A 1.2.3.4"));
  check "bad rtype" true
    (Result.is_error (Zonefile.parse "$ORIGIN test.\na.test. BOGUS x"))

let test_build_zone () =
  let z =
    Zonefile.build_zone
      [ { Zonefile.rname = "*"; rtype = Rr.DNAME; rdata = "a.a" } ]
  in
  check "zone validates" true (Result.is_ok (Zone.validate z));
  check "has the suffixed record" true
    (List.exists
       (fun (r : Rr.t) ->
         Name.equal r.owner (n "*.test.") && r.rtype = Rr.DNAME
         && Rr.target r = Some (n "a.a.test."))
       z.Zone.records)

let test_build_zone_delegation () =
  let z = Zonefile.build_zone ~extra_delegation:true [] in
  check "has a cut" true (Zone.delegation_of z (n "x.b.test.") <> None);
  check "has sibling glue" true (Zone.glue_for z [ n "ns.a.test." ] <> [])

let test_build_zone_out_of_zone_target () =
  let z =
    Zonefile.build_zone
      [ { Zonefile.rname = "a"; rtype = Rr.CNAME; rdata = "*" } ]
  in
  check "star rdata maps out of zone" true
    (List.exists
       (fun (r : Rr.t) ->
         r.rtype = Rr.CNAME
         && (match Rr.target r with
            | Some t -> not (Zone.in_zone z t)
            | None -> false))
       z.Zone.records)

(* ----- reference lookup semantics ----- *)

let lookup ?quirks z q =
  Lookup.lookup ?quirks:(Option.map Quirkset.of_list quirks) z q

let reply z qname qtype =
  match lookup z { Message.qname = n qname; qtype } with
  | Message.Reply r -> r
  | Message.Crash m -> Alcotest.failf "unexpected crash: %s" m

let test_lookup_exact_match () =
  let z = zone [ Rr.v (n "a.test.") Rr.A (Rr.Address "10.0.0.1") ] in
  let r = reply z "a.test." Rr.A in
  check "noerror" true (r.rcode = Message.NOERROR);
  check "aa" true r.aa;
  check_int "one answer" 1 (List.length r.answer)

let test_lookup_nodata () =
  let z = zone [ Rr.v (n "a.test.") Rr.A (Rr.Address "10.0.0.1") ] in
  let r = reply z "a.test." Rr.TXT in
  check "noerror" true (r.rcode = Message.NOERROR);
  check "empty answer" true (r.answer = []);
  check "soa in authority" true
    (List.exists (fun (rr : Rr.t) -> rr.rtype = Rr.SOA) r.authority)

let test_lookup_nxdomain () =
  let r = reply (zone []) "missing.test." Rr.A in
  check "nxdomain" true (r.rcode = Message.NXDOMAIN)

let test_lookup_refused () =
  match lookup (zone []) { Message.qname = n "a.example."; qtype = Rr.A } with
  | Message.Reply r -> check "refused out of zone" true (r.rcode = Message.REFUSED)
  | Message.Crash _ -> Alcotest.fail "crash"

let test_lookup_ent () =
  let z = zone [ Rr.v (n "a.b.test.") Rr.A (Rr.Address "10.0.0.1") ] in
  let r = reply z "b.test." Rr.A in
  check "ENT is NOERROR, not NXDOMAIN" true (r.rcode = Message.NOERROR);
  check "empty answer" true (r.answer = [])

let test_lookup_cname_chain () =
  let z =
    zone
      [
        Rr.v (n "a.test.") Rr.CNAME (Rr.Target (n "b.test."));
        Rr.v (n "b.test.") Rr.CNAME (Rr.Target (n "c.test."));
        Rr.v (n "c.test.") Rr.A (Rr.Address "10.0.0.1");
      ]
  in
  let r = reply z "a.test." Rr.A in
  check "noerror" true (r.rcode = Message.NOERROR);
  check_int "two CNAMEs + A" 3 (List.length r.answer)

let test_lookup_cname_exact_qtype () =
  let z = zone [ Rr.v (n "a.test.") Rr.CNAME (Rr.Target (n "b.test.")) ] in
  let r = reply z "a.test." Rr.CNAME in
  check_int "CNAME itself returned" 1 (List.length r.answer);
  check "no chain for CNAME queries" true
    (match r.answer with [ rr ] -> rr.Rr.rtype = Rr.CNAME | _ -> false)

let test_lookup_cname_loop () =
  let z =
    zone
      [
        Rr.v (n "a.test.") Rr.CNAME (Rr.Target (n "b.test."));
        Rr.v (n "b.test.") Rr.CNAME (Rr.Target (n "a.test."));
      ]
  in
  let r = reply z "a.test." Rr.A in
  check "loop terminates NOERROR" true (r.rcode = Message.NOERROR);
  check "whole loop returned once" true (List.length r.answer >= 2)

let test_lookup_cname_dangling_target () =
  let z = zone [ Rr.v (n "a.test.") Rr.CNAME (Rr.Target (n "gone.test.")) ] in
  let r = reply z "a.test." Rr.A in
  check "NXDOMAIN for missing target" true (r.rcode = Message.NXDOMAIN);
  check "cname still in answer" true (List.length r.answer = 1)

let test_lookup_dname () =
  let z =
    zone
      [
        Rr.v (n "b.test.") Rr.DNAME (Rr.Target (n "c.test."));
        Rr.v (n "a.c.test.") Rr.A (Rr.Address "10.0.0.1");
      ]
  in
  let r = reply z "a.b.test." Rr.A in
  check "noerror" true (r.rcode = Message.NOERROR);
  (* DNAME + synthesized CNAME + final A *)
  check_int "three records" 3 (List.length r.answer);
  check "synthesized CNAME present" true
    (List.exists
       (fun (rr : Rr.t) ->
         rr.rtype = Rr.CNAME
         && Name.equal rr.owner (n "a.b.test.")
         && Rr.target rr = Some (n "a.c.test."))
       r.answer)

let test_lookup_dname_at_owner_is_not_rewritten () =
  let z = zone [ Rr.v (n "b.test.") Rr.DNAME (Rr.Target (n "c.test.")) ] in
  let r = reply z "b.test." Rr.A in
  check "NODATA at the DNAME owner" true (r.rcode = Message.NOERROR && r.answer = [])

let test_lookup_wildcard () =
  let z = zone [ Rr.v (n "*.test.") Rr.A (Rr.Address "10.0.0.7") ] in
  let r = reply z "x.y.test." Rr.A in
  check_int "one synthesized answer" 1 (List.length r.answer);
  check "owner is the query name" true
    (match r.answer with
    | [ rr ] -> Name.equal rr.Rr.owner (n "x.y.test.")
    | _ -> false)

let test_lookup_wildcard_no_match_at_base () =
  let z = zone [ Rr.v (n "*.test.") Rr.A (Rr.Address "10.0.0.7") ] in
  let r = reply z "test." Rr.A in
  check "base name not matched by wildcard" true (r.answer = [])

let test_lookup_delegation_with_glue () =
  let z =
    zone
      [
        Rr.v (n "child.test.") Rr.NS (Rr.Target (n "ns.sib.test."));
        Rr.v (n "ns.sib.test.") Rr.A (Rr.Address "10.0.0.53");
      ]
  in
  let r = reply z "deep.child.test." Rr.A in
  check "not authoritative" false r.aa;
  check "NS in authority" true
    (List.exists (fun (rr : Rr.t) -> rr.rtype = Rr.NS) r.authority);
  check "glue in additional" true
    (List.exists (fun (rr : Rr.t) -> rr.rtype = Rr.A) r.additional)

let test_lookup_dname_fig2_example () =
  (* the §2.3 Knot scenario: *.test. DNAME a.a.test., query a.*.test. *)
  let z = zone [ Rr.v (n "*.test.") Rr.DNAME (Rr.Target (n "a.a.test.")) ] in
  let r = reply z "a.*.test." Rr.CNAME in
  check "DNAME with original owner" true
    (List.exists
       (fun (rr : Rr.t) -> rr.rtype = Rr.DNAME && Name.equal rr.owner (n "*.test."))
       r.answer);
  check "synthesized CNAME at the query name" true
    (List.exists
       (fun (rr : Rr.t) ->
         rr.rtype = Rr.CNAME
         && Name.equal rr.owner (n "a.*.test.")
         && Rr.target rr = Some (n "a.a.a.test."))
       r.answer)

(* ----- quirks: each one changes behaviour on a witness scenario ----- *)

let responses_differ z qname qtype quirk =
  let q = { Message.qname = n qname; qtype } in
  lookup z q <> lookup ~quirks:[ quirk ] z q

let test_quirk_witnesses () =
  let glue_zone =
    zone
      [
        Rr.v (n "child.test.") Rr.NS (Rr.Target (n "ns.sib.test."));
        Rr.v (n "ns.sib.test.") Rr.A (Rr.Address "10.0.0.53");
        Rr.v (n "*.test.") Rr.TXT (Rr.Text "w");
      ]
  in
  let loop_zone =
    zone
      [
        Rr.v (n "a.test.") Rr.CNAME (Rr.Target (n "b.test."));
        Rr.v (n "b.test.") Rr.CNAME (Rr.Target (n "a.test."));
      ]
  in
  let dname_zone =
    zone
      [
        Rr.v (n "b.test.") Rr.DNAME (Rr.Target (n "c.test."));
        Rr.v (n "c.test.") Rr.DNAME (Rr.Target (n "d.test."));
        Rr.v (n "a.d.test.") Rr.A (Rr.Address "10.0.0.1");
      ]
  in
  let wildcard_zone = zone [ Rr.v (n "*.test.") Rr.A (Rr.Address "10.0.0.7") ] in
  let star_rdata_zone =
    zone [ Rr.v (n "a.test.") Rr.TXT (Rr.Text "has * inside") ]
  in
  let ent_wild_zone = zone [ Rr.v (n "a.*.b.test.") Rr.A (Rr.Address "10.0.0.1") ] in
  let nested_wild_zone =
    zone
      [
        Rr.v (n "*.test.") Rr.TXT (Rr.Text "shallow");
        Rr.v (n "*.a.test.") Rr.TXT (Rr.Text "deep");
      ]
  in
  let out_of_zone_cname =
    zone [ Rr.v (n "a.test.") Rr.CNAME (Rr.Target (n "x.example.")) ] in
  let cases =
    [
      (Lookup.Sibling_glue_missing, glue_zone, "x.child.test.", Rr.A);
      (Lookup.Sibling_glue_missing_wildcard, glue_zone, "x.child.test.", Rr.A);
      (Lookup.Servfail_with_answer, loop_zone, "a.test.", Rr.A);
      (Lookup.Missing_cname_loop_record, loop_zone, "a.test.", Rr.A);
      (Lookup.Out_of_zone_record_returned, out_of_zone_cname, "a.test.", Rr.A);
      (Lookup.Out_of_zone_mishandled, out_of_zone_cname, "a.test.", Rr.A);
      (Lookup.Wrong_rcode_star_rdata, star_rdata_zone, "a.test.", Rr.TXT);
      (Lookup.Wrong_rcode_ent_wildcard, ent_wild_zone, "b.test.", Rr.A);
      (Lookup.Dname_name_replaced_by_query, dname_zone, "a.b.test.", Rr.A);
      (Lookup.Dname_not_recursive, dname_zone, "a.b.test.", Rr.A);
      (Lookup.Wildcard_one_label, wildcard_zone, "x.y.test.", Rr.A);
      (Lookup.Glue_aa_flag, glue_zone, "x.child.test.", Rr.A);
      (Lookup.Aa_zone_cut_ns, glue_zone, "x.child.test.", Rr.A);
      ( Lookup.Invalid_wildcard_match,
        zone [ Rr.v (n "*.a.test.") Rr.A (Rr.Address "10.0.0.7") ],
        "a.test.", Rr.A );
      (Lookup.Nested_wildcards_broken, nested_wild_zone, "x.a.test.", Rr.TXT);
      (Lookup.Duplicate_answer_records, wildcard_zone, "x.test.", Rr.A);
      (Lookup.Cname_chain_not_followed, loop_zone, "a.test.", Rr.A);
      (Lookup.Empty_answer_wildcard, wildcard_zone, "x.test.", Rr.A);
      (Lookup.Missing_aa_flag, wildcard_zone, "x.test.", Rr.A);
      ( Lookup.Inconsistent_loop_unroll,
        zone
          [
            Rr.v (n "a.test.") Rr.CNAME (Rr.Target (n "b.test."));
            Rr.v (n "b.test.") Rr.CNAME (Rr.Target (n "c.test."));
            Rr.v (n "c.test.") Rr.CNAME (Rr.Target (n "d.test."));
            Rr.v (n "d.test.") Rr.CNAME (Rr.Target (n "e.test."));
            Rr.v (n "e.test.") Rr.A (Rr.Address "10.0.0.5");
          ],
        "a.test.", Rr.A );
    ]
  in
  List.iter
    (fun (quirk, z, qname, qtype) ->
      check
        (Printf.sprintf "%s has a witness" (Lookup.quirk_to_string quirk))
        true
        (responses_differ z qname qtype quirk))
    cases

let test_quirk_wrong_rcode_cname_target () =
  let z = zone [ Rr.v (n "a.test.") Rr.CNAME (Rr.Target (n "gone.test.")) ] in
  check "witness" true (responses_differ z "a.test." Rr.A Lookup.Wrong_rcode_cname_target)

let test_quirk_dname_replaced_by_query_fig2 () =
  let z = zone [ Rr.v (n "*.test.") Rr.DNAME (Rr.Target (n "a.a.test.")) ] in
  let q = { Message.qname = n "a.*.test."; qtype = Rr.CNAME } in
  match lookup ~quirks:[ Lookup.Dname_name_replaced_by_query ] z q with
  | Message.Reply r ->
      (* the bug: owner of the returned DNAME is the query name *)
      check "owner replaced" true
        (List.exists
           (fun (rr : Rr.t) ->
             rr.rtype = Rr.DNAME && Name.equal rr.owner (n "a.*.test."))
           r.answer)
  | Message.Crash _ -> Alcotest.fail "crash"

let test_quirk_wildcard_loop_crash () =
  let z = zone [ Rr.v (n "*.test.") Rr.CNAME (Rr.Target (n "x.y.test.")) ] in
  let q = { Message.qname = n "a.test."; qtype = Rr.A } in
  (match lookup ~quirks:[ Lookup.Wildcard_loop_crash ] z q with
  | Message.Crash _ -> ()
  | Message.Reply _ -> Alcotest.fail "expected a crash");
  (* the reference engine survives the same zone *)
  match lookup z q with
  | Message.Reply _ -> ()
  | Message.Crash _ -> Alcotest.fail "reference must not crash"

let test_quirk_star_query_synthesis () =
  let z = zone [ Rr.v (n "*.test.") Rr.A (Rr.Address "10.0.0.7") ] in
  let q = { Message.qname = n "a.*.test."; qtype = Rr.A } in
  match (lookup z q, lookup ~quirks:[ Lookup.Star_query_synthesis ] z q) with
  | Message.Reply ok, Message.Reply bad ->
      check "reference synthesizes at the query name" true
        (List.exists (fun (rr : Rr.t) -> Name.equal rr.owner (n "a.*.test.")) ok.answer);
      check "quirk keeps the wildcard owner" true
        (List.exists (fun (rr : Rr.t) -> Name.equal rr.owner (n "*.test.")) bad.answer)
  | _ -> Alcotest.fail "crash"

(* ----- the consult log ----- *)

let gen_short =
  QCheck2.Gen.oneofl
    [ ""; "a"; "b"; "*"; "a.b"; "*.a"; "a.*"; "b.*"; "*.*"; "ns.a"; "a.b.*" ]

let gen_record =
  QCheck2.Gen.(
    map3
      (fun rname rtype rdata -> { Zonefile.rname; rtype; rdata })
      gen_short
      (oneofl [ Rr.A; Rr.A; Rr.CNAME; Rr.CNAME; Rr.DNAME; Rr.NS; Rr.TXT ])
      (oneof [ gen_short; oneofl [ "10.0.0.1"; "a*" ] ]))

let prop_unconsulted_quirks_inert =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:300
       ~name:"lookup: a quirk the run did not consult cannot change it"
       QCheck2.Gen.(
         tup5
           (list_size (int_range 0 6) gen_record)
           bool gen_short
           (oneofl [ Rr.A; Rr.CNAME; Rr.DNAME; Rr.TXT; Rr.NS ])
           (Inert.gen_subset Lookup.all_quirks))
       (fun (records, extra_delegation, qname, qtype, quirks) ->
         let z = Zonefile.build_zone ~extra_delegation records in
         let q = Zonefile.build_query qname qtype in
         Inert.unconsulted_are_inert ~all:Lookup.all_quirks
           (fun quirks -> Lookup.lookup ~quirks z q)
           quirks))

(* ----- implementations ----- *)

let test_impls_roster () =
  check_int "ten implementations" 10 (List.length Impls.all);
  check "bind exists" true (Impls.find "bind" <> None);
  check "unknown absent" true (Impls.find "nginx" = None)

let test_impls_versions () =
  match Impls.find "coredns" with
  | None -> Alcotest.fail "coredns missing"
  | Some impl ->
      let old_q = Impls.quirks impl Impls.Old in
      let cur_q = Impls.quirks impl Impls.Current in
      check "old has all bugs" true (List.length old_q > List.length cur_q);
      check "current keeps only new bugs" true
        (List.for_all
           (fun q ->
             List.exists
               (fun (b : Impls.bug) -> b.quirk = q && b.new_bug)
               impl.Impls.bugs)
           cur_q)

let test_impls_bug_catalog_counts () =
  (* Table 3 has 38 DNS rows; the "Faulty Knot Test" row concerns
     Knot's own test suite, not server behaviour, so 37 are in scope *)
  check_int "catalog rows" 37 (List.length Impls.bug_catalog);
  let uniq =
    List.sort_uniq compare (List.map (fun (_, b : string * Impls.bug) -> b.quirk)
                              Impls.bug_catalog)
  in
  check "several shared root causes" true (List.length uniq < 38)

let test_impls_reference_disagreement () =
  (* a bug-flagged implementation answers differently from the quirk-free
     engine on its witness, while a clean version agrees *)
  let z = zone [ Rr.v (n "*.test.") Rr.A (Rr.Address "10.0.0.7") ] in
  let q = { Message.qname = n "x.test."; qtype = Rr.A } in
  let reference = Lookup.lookup z q in
  match Impls.find "twisted" with
  | None -> Alcotest.fail "twisted missing"
  | Some impl ->
      check "twisted deviates (empty answer bug)" false
        (Impls.serve impl Impls.Old z q = reference)

let suite =
  [
    Alcotest.test_case "name: parsing" `Quick test_name_parse;
    Alcotest.test_case "name: suffix tests" `Quick test_name_suffix;
    Alcotest.test_case "name: strip and append" `Quick test_name_strip_append;
    Alcotest.test_case "name: wildcards" `Quick test_name_wildcard;
    Alcotest.test_case "name: DNAME substitution" `Quick test_name_substitute;
    prop_name_roundtrip;
    prop_strip_append;
    prop_rr_equal_structural;
    Alcotest.test_case "record: TXT to_string" `Quick test_rr_to_string_txt;
    Alcotest.test_case "zone: basics" `Quick test_zone_basics;
    Alcotest.test_case "zone: empty non-terminals" `Quick test_zone_ent;
    Alcotest.test_case "zone: delegations" `Quick test_zone_delegation;
    Alcotest.test_case "zone: sibling glue" `Quick test_zone_glue;
    Alcotest.test_case "zone: wildcard ordering" `Quick test_zone_wildcard_ordering;
    Alcotest.test_case "zone: validation" `Quick test_zone_validate;
    Alcotest.test_case "zonefile: round trip" `Quick test_zonefile_roundtrip;
    Alcotest.test_case "zonefile: parse errors" `Quick test_zonefile_parse_errors;
    Alcotest.test_case "zonefile: §2.3 post-processing" `Quick test_build_zone;
    Alcotest.test_case "zonefile: delegation setup" `Quick test_build_zone_delegation;
    Alcotest.test_case "zonefile: out-of-zone targets" `Quick
      test_build_zone_out_of_zone_target;
    Alcotest.test_case "lookup: exact match" `Quick test_lookup_exact_match;
    Alcotest.test_case "lookup: NODATA" `Quick test_lookup_nodata;
    Alcotest.test_case "lookup: NXDOMAIN" `Quick test_lookup_nxdomain;
    Alcotest.test_case "lookup: REFUSED out of zone" `Quick test_lookup_refused;
    Alcotest.test_case "lookup: empty non-terminal" `Quick test_lookup_ent;
    Alcotest.test_case "lookup: CNAME chains" `Quick test_lookup_cname_chain;
    Alcotest.test_case "lookup: CNAME query type" `Quick test_lookup_cname_exact_qtype;
    Alcotest.test_case "lookup: CNAME loops" `Quick test_lookup_cname_loop;
    Alcotest.test_case "lookup: dangling CNAME target" `Quick test_lookup_cname_dangling_target;
    Alcotest.test_case "lookup: DNAME rewriting" `Quick test_lookup_dname;
    Alcotest.test_case "lookup: DNAME owner not rewritten" `Quick
      test_lookup_dname_at_owner_is_not_rewritten;
    Alcotest.test_case "lookup: wildcard synthesis" `Quick test_lookup_wildcard;
    Alcotest.test_case "lookup: wildcard base not matched" `Quick
      test_lookup_wildcard_no_match_at_base;
    Alcotest.test_case "lookup: delegation with glue" `Quick test_lookup_delegation_with_glue;
    Alcotest.test_case "lookup: the §2.3 DNAME example" `Quick test_lookup_dname_fig2_example;
    Alcotest.test_case "quirks: every quirk has a witness" `Quick test_quirk_witnesses;
    Alcotest.test_case "quirk: wrong rcode for CNAME target" `Quick
      test_quirk_wrong_rcode_cname_target;
    Alcotest.test_case "quirk: Knot DNAME owner replacement" `Quick
      test_quirk_dname_replaced_by_query_fig2;
    Alcotest.test_case "quirk: wildcard loop crash" `Quick test_quirk_wildcard_loop_crash;
    Alcotest.test_case "quirk: star-in-query synthesis" `Quick test_quirk_star_query_synthesis;
    prop_unconsulted_quirks_inert;
    Alcotest.test_case "impls: roster" `Quick test_impls_roster;
    Alcotest.test_case "impls: old vs current versions" `Quick test_impls_versions;
    Alcotest.test_case "impls: bug catalog" `Quick test_impls_bug_catalog_counts;
    Alcotest.test_case "impls: deviation from reference" `Quick
      test_impls_reference_disagreement;
  ]
