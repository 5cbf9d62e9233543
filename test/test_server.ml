(* The loopback UDP nameserver: real sockets over the wire codec. *)

open Eywa_dns
module Quirkset = Eywa_quirkset.Quirkset

let check = Alcotest.(check bool)
let n = Name.of_string

let test_zone =
  Zone.v (n "test.")
    [
      Rr.v (n "test.") Rr.SOA Rr.Soa_data;
      Rr.v (n "test.") Rr.NS (Rr.Target (n "ns1.outside.edu."));
      Rr.v (n "a.test.") Rr.A (Rr.Address "10.0.0.1");
      Rr.v (n "c.test.") Rr.CNAME (Rr.Target (n "a.test."));
    ]

let with_server handler f =
  match Server.start handler with
  | Error m -> Alcotest.fail m
  | Ok server ->
      Fun.protect ~finally:(fun () -> Server.stop server) (fun () ->
          f (Server.port server))

let test_udp_roundtrip () =
  with_server (Lookup.lookup test_zone) (fun port ->
      match Server.query ~port { Message.qname = n "a.test."; qtype = Rr.A } with
      | Error m -> Alcotest.fail m
      | Ok r ->
          check "noerror" true (r.Message.rcode = Message.NOERROR);
          check "aa" true r.Message.aa;
          check "answer over the wire" true
            (List.exists
               (fun (rr : Rr.t) -> rr.rdata = Rr.Address "10.0.0.1")
               r.Message.answer))

let test_udp_cname_chain () =
  with_server (Lookup.lookup test_zone) (fun port ->
      match Server.query ~port { Message.qname = n "c.test."; qtype = Rr.A } with
      | Error m -> Alcotest.fail m
      | Ok r -> check "two records" true (List.length r.Message.answer = 2))

let test_udp_nxdomain () =
  with_server (Lookup.lookup test_zone) (fun port ->
      match Server.query ~port { Message.qname = n "zz.test."; qtype = Rr.A } with
      | Error m -> Alcotest.fail m
      | Ok r -> check "nxdomain" true (r.Message.rcode = Message.NXDOMAIN))

let test_crash_becomes_servfail () =
  with_server (fun _ -> Message.Crash "boom") (fun port ->
      match Server.query ~port { Message.qname = n "a.test."; qtype = Rr.A } with
      | Error m -> Alcotest.fail m
      | Ok r -> check "servfail" true (r.Message.rcode = Message.SERVFAIL))

let test_query_timeout () =
  (* nothing listens on this port; expect a timeout error, not a hang *)
  match
    Server.query ~timeout:0.2 ~port:1 { Message.qname = n "a.test."; qtype = Rr.A }
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected a timeout"

let test_two_servers_differ () =
  (* the socket path preserves the differential signal *)
  let quirky =
    Lookup.lookup
      ~quirks:(Quirkset.of_list [ Lookup.Cname_chain_not_followed ])
      test_zone
  in
  with_server (Lookup.lookup test_zone) (fun port_ref ->
      with_server quirky (fun port_quirk ->
          let q = { Message.qname = n "c.test."; qtype = Rr.A } in
          match (Server.query ~port:port_ref q, Server.query ~port:port_quirk q) with
          | Ok a, Ok b ->
              check "answers differ over the wire" false
                (Message.equal_response a b)
          | _ -> Alcotest.fail "query failed"))

let suite =
  [
    Alcotest.test_case "udp round trip" `Quick test_udp_roundtrip;
    Alcotest.test_case "udp CNAME chain" `Quick test_udp_cname_chain;
    Alcotest.test_case "udp NXDOMAIN" `Quick test_udp_nxdomain;
    Alcotest.test_case "crash answered as SERVFAIL" `Quick test_crash_becomes_servfail;
    Alcotest.test_case "client timeout" `Quick test_query_timeout;
    Alcotest.test_case "differential signal over sockets" `Quick
      test_two_servers_differ;
  ]
