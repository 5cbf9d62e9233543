(* The §6 TCP extension: machine semantics and the stateful pipeline. *)

open Eywa_tcp
module Stategraph = Eywa_stategraph.Stategraph

let check = Alcotest.(check bool)
let check_str = Alcotest.(check string)

let test_handshake () =
  Alcotest.(check (list string)) "three-way handshake + data"
    [ "SA"; "-"; "A" ]
    (Machine.run_connection [ Machine.Syn; Machine.Ack; Machine.Data ])

let test_teardown () =
  Alcotest.(check (list string)) "passive close"
    [ "SA"; "-"; "A"; "FA"; "-" ]
    (Machine.run_connection
       [ Machine.Syn; Machine.Ack; Machine.Fin; Machine.Ack; Machine.Ack ])

let test_data_before_handshake_rejected () =
  let reply, state = Machine.handle Machine.Syn_rcvd Machine.Data in
  check_str "RST for early data" "R" reply;
  check "state unchanged" true (state = Machine.Syn_rcvd)

let test_quirk_fast_open () =
  let reply, _ =
    Machine.handle ~quirks:[ Machine.Data_before_established ] Machine.Syn_rcvd
      Machine.Data
  in
  check_str "quirk ACKs early data" "A" reply

let test_quirk_quiet () =
  let reply, _ =
    Machine.handle ~quirks:[ Machine.No_rst_on_bad_segment ] Machine.Listen
      Machine.Ack
  in
  check_str "quirk stays silent" "-" reply;
  let reply, _ = Machine.handle Machine.Listen Machine.Ack in
  check_str "reference sends RST" "R" reply

let test_rst_resets () =
  let _, state = Machine.handle Machine.Established Machine.Rst in
  check "RST closes" true (state = Machine.Closed);
  let _, state = Machine.handle Machine.Syn_rcvd Machine.Rst in
  check "RST in SYN_RCVD returns to LISTEN" true (state = Machine.Listen)

let test_reference_transitions () =
  List.iter
    (fun ((s, letter), s') ->
      match Machine.state_of_string s with
      | None -> Alcotest.failf "bad state %s" s
      | Some state ->
          let _, next = Machine.handle state (Machine.segment_of_letter letter) in
          check_str "transition agrees" s' (Machine.state_to_string next))
    Machine.reference_transitions

let test_letters_roundtrip () =
  List.iter
    (fun seg ->
      check "letter round trip" true
        (Machine.segment_of_letter (Machine.segment_to_letter seg) = seg))
    [ Machine.Syn; Machine.Ack; Machine.Fin; Machine.Rst; Machine.Data ]

let reference_graph = Stategraph.of_list Machine.reference_transitions

(* the reply to [input] after driving [impl] to [state] *)
let drive_and_probe impl graph ~state ~input =
  Result.map
    (fun replies -> List.hd (List.rev replies))
    (Eywa_models.Stateful_adapter.drive Eywa_models.Tcp_adapter.machine graph
       ~state ~input (Impls.quirks impl))

let test_drive_and_probe () =
  match Impls.find "refstack" with
  | None -> Alcotest.fail "refstack missing"
  | Some impl -> (
      match
        drive_and_probe impl reference_graph ~state:"ESTABLISHED" ~input:"D"
      with
      | Ok reply -> check_str "data ACKed when established" "A" reply
      | Error m -> Alcotest.fail m)

let test_drive_unreachable () =
  let tiny = Stategraph.of_list [ (("LISTEN", "S"), "SYN_RCVD") ] in
  match Impls.find "refstack" with
  | None -> Alcotest.fail "refstack missing"
  | Some impl ->
      Alcotest.(check (result string string))
        "unreachable state reported"
        (Error "state LAST_ACK unreachable in the extracted graph")
        (drive_and_probe impl tiny ~state:"LAST_ACK" ~input:"A")

let test_probe_distinguishes_fastopend () =
  let probe name =
    match Impls.find name with
    | None -> Alcotest.fail "missing impl"
    | Some impl -> (
        match
          drive_and_probe impl reference_graph ~state:"SYN_RCVD" ~input:"D"
        with
        | Ok r -> r
        | Error m -> Alcotest.fail m)
  in
  check_str "refstack resets" "R" (probe "refstack");
  check_str "fastopend acknowledges" "A" (probe "fastopend")

let tcp_synth =
  lazy
    (let oracle = Eywa_llm.Gpt.oracle () in
     match
       Eywa_models.Model_def.synthesize ~k:3 ~timeout:2.0 ~oracle
         Eywa_models.Tcp_models.server
     with
     | Error e -> Alcotest.fail e
     | Ok synth -> synth)

let tcp_graph synth =
  match Eywa_models.Tcp_adapter.state_graph_for synth with
  | Error m -> Alcotest.fail m
  | Ok graph -> graph

let test_pipeline_end_to_end () =
  let synth = Lazy.force tcp_synth in
  check "tests produced" true (synth.unique_tests <> []);
  let graph = tcp_graph synth in
  check "all six states in the graph" true
    (List.length (Stategraph.states graph) >= 6);
  let found =
    Eywa_models.Tcp_adapter.quirks_triggered ~graph synth.unique_tests
  in
  check "handshake-bypass bug found" true
    (List.mem ("fastopend", Machine.Data_before_established) found);
  check "missing-RST bug found" true
    (List.mem ("quietstack", Machine.No_rst_on_bad_segment) found)

(* TCP difftest runs on the pool and reports to the sink like the other
   protocols; the reference is the sequential record fold. *)
let test_difftest_pool_and_sink () =
  let module Difftest = Eywa_difftest.Difftest in
  let synth = Lazy.force tcp_synth in
  let graph = tcp_graph synth in
  let events = ref [] in
  let report =
    Eywa_models.Tcp_adapter.run ~jobs:4
      ~sink:(fun e -> events := e :: !events)
      ~graph synth.unique_tests
  in
  let acc = Difftest.create () in
  List.iter
    (fun t ->
      match Eywa_models.Tcp_adapter.observations_for ~graph t with
      | None -> ()
      | Some obs -> ignore (Difftest.record acc obs))
    synth.unique_tests;
  check "jobs=4 report = sequential fold" true (report = Difftest.report acc);
  check "the suite disagrees somewhere" true (report.disagreeing_tests > 0);
  match
    List.filter_map
      (function
        | Eywa_core.Instrument.Difftest_done { label; execs; _ } ->
            Some (label, execs)
        | _ -> None)
      !events
  with
  | [ (label, execs) ] ->
      check_str "Difftest_done label" "TCP" label;
      Alcotest.(check int) "Difftest_done execs" report.observations execs
  | _ -> Alcotest.fail "expected exactly one Difftest_done"

let prop_connections_agree_without_quirks =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:200
       ~name:"quirk-free stacks replay the reference on random connections"
       QCheck2.Gen.(list_size (int_range 0 10)
                      (oneofl [ "S"; "A"; "F"; "R"; "D"; "x" ]))
       (fun letters ->
         let segments = List.map Machine.segment_of_letter letters in
         match Impls.find "refstack" with
         | Some impl ->
             Machine.run_connection ~quirks:(Impls.quirks impl) segments
             = Machine.run_connection segments
         | None -> false))

let suite =
  [
    Alcotest.test_case "machine: handshake" `Quick test_handshake;
    Alcotest.test_case "machine: teardown" `Quick test_teardown;
    Alcotest.test_case "machine: early data rejected" `Quick
      test_data_before_handshake_rejected;
    Alcotest.test_case "quirk: handshake bypass" `Quick test_quirk_fast_open;
    Alcotest.test_case "quirk: silent drops" `Quick test_quirk_quiet;
    Alcotest.test_case "machine: RST handling" `Quick test_rst_resets;
    Alcotest.test_case "machine: declared transitions agree" `Quick
      test_reference_transitions;
    Alcotest.test_case "machine: segment letters round trip" `Quick
      test_letters_roundtrip;
    Alcotest.test_case "impls: drive and probe" `Quick test_drive_and_probe;
    Alcotest.test_case "impls: unreachable state" `Quick test_drive_unreachable;
    Alcotest.test_case "impls: probe distinguishes fastopend" `Quick
      test_probe_distinguishes_fastopend;
    Alcotest.test_case "pipeline: TCP end to end" `Slow test_pipeline_end_to_end;
    Alcotest.test_case "difftest: pool run = sequential fold, on the sink"
      `Slow test_difftest_pool_and_sink;
    prop_connections_agree_without_quirks;
  ]
