open Eywa_smtp
module Stategraph = Eywa_stategraph.Stategraph

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* ----- the reference machine ----- *)

let test_happy_path () =
  let replies =
    Machine.run_session
      [ Machine.Helo; Machine.Mail_from; Machine.Rcpt_to; Machine.Data;
        Machine.End_data; Machine.Quit ]
  in
  Alcotest.(check (list string)) "full transaction"
    [ "250"; "250"; "250"; "354"; "250"; "221" ] replies

let test_bad_sequences () =
  check_str "MAIL before HELO" "503"
    (List.hd (Machine.run_session [ Machine.Mail_from ]));
  check_str "RCPT before MAIL" "503"
    (List.nth (Machine.run_session [ Machine.Helo; Machine.Rcpt_to ]) 1);
  check_str "DATA before RCPT" "503"
    (List.nth (Machine.run_session [ Machine.Helo; Machine.Mail_from; Machine.Data ]) 2)

let test_multiple_recipients () =
  let replies =
    Machine.run_session
      [ Machine.Helo; Machine.Mail_from; Machine.Rcpt_to; Machine.Rcpt_to;
        Machine.Data ]
  in
  Alcotest.(check (list string)) "extra RCPT allowed"
    [ "250"; "250"; "250"; "250"; "354" ] replies

let test_data_consumes_anything () =
  let reply, state =
    Machine.handle Machine.Data_received (Machine.Other "random body line")
  in
  check_str "body line gets 354" "354" reply;
  check "stays collecting" true (state = Machine.Data_received)

let test_end_data_resets () =
  let _, state = Machine.handle Machine.Data_received Machine.End_data in
  check "back to INITIAL" true (state = Machine.Initial)

let test_quit_everywhere () =
  List.iter
    (fun s ->
      let reply, state = Machine.handle s Machine.Quit in
      check_str "221 on quit" "221" reply;
      check "quitted" true (state = Machine.Quitted))
    [ Machine.Initial; Machine.Helo_sent; Machine.Ehlo_sent;
      Machine.Mail_from_received; Machine.Rcpt_to_received ]

let test_letters_roundtrip () =
  List.iter
    (fun c ->
      check "letter round trip" true
        (Machine.command_of_letter (Machine.command_to_letter c) = c))
    [ Machine.Helo; Machine.Ehlo; Machine.Mail_from; Machine.Rcpt_to;
      Machine.Data; Machine.End_data; Machine.Quit ]

let test_state_names_roundtrip () =
  List.iter
    (fun s ->
      check "state name round trip" true
        (Machine.state_of_string (Machine.state_to_string s) = Some s))
    [ Machine.Initial; Machine.Helo_sent; Machine.Ehlo_sent;
      Machine.Mail_from_received; Machine.Rcpt_to_received;
      Machine.Data_received; Machine.Quitted ]

let test_reference_transitions_consistent () =
  (* each declared transition is reproduced by the machine *)
  List.iter
    (fun ((s, letter), s') ->
      match Machine.state_of_string s with
      | None -> Alcotest.failf "bad state %s" s
      | Some state ->
          let _, next = Machine.handle state (Machine.command_of_letter letter) in
          check_str "transition agrees" s' (Machine.state_to_string next))
    Machine.reference_transitions

(* ----- the aiosmtpd quirk ----- *)

let test_quirk_accepts_mail_without_helo () =
  let reply, state =
    Machine.handle ~quirks:[ Machine.Accept_mail_without_helo ] Machine.Initial
      Machine.Mail_from
  in
  check_str "accepted" "250" reply;
  check "jumped ahead" true (state = Machine.Mail_from_received);
  (* the reference rejects the same input *)
  let reply, state = Machine.handle Machine.Initial Machine.Mail_from in
  check_str "reference rejects" "503" reply;
  check "reference stays" true (state = Machine.Initial)

(* ----- implementations and driving ----- *)

let reference_graph = Stategraph.of_list Machine.reference_transitions

(* the reply to [input] after driving [impl] to [state] *)
let drive_and_probe impl graph ~state ~input =
  Result.map
    (fun replies -> List.hd (List.rev replies))
    (Eywa_models.Stateful_adapter.drive Eywa_models.Smtp_adapter.machine graph
       ~state ~input (Impls.quirks impl))

let test_impls_roster () =
  check_int "three servers" 3 (List.length Impls.all);
  check "aiosmtpd has the bug" true
    (match Impls.find "aiosmtpd" with
    | Some impl -> Impls.quirks impl <> []
    | None -> false);
  check "opensmtpd clean" true
    (match Impls.find "opensmtpd" with
    | Some impl -> Impls.quirks impl = []
    | None -> false)

let test_drive_and_probe () =
  match Impls.find "smtpd" with
  | None -> Alcotest.fail "smtpd missing"
  | Some impl -> (
      match
        drive_and_probe impl reference_graph ~state:"RCPT_TO_RECEIVED"
          ~input:"D"
      with
      | Ok reply -> check_str "DATA from RCPT state" "354" reply
      | Error m -> Alcotest.fail m)

let test_drive_unreachable () =
  let tiny = Stategraph.of_list [ (("INITIAL", "H"), "HELO_SENT") ] in
  match Impls.find "smtpd" with
  | None -> Alcotest.fail "smtpd missing"
  | Some impl ->
      check "unreachable state reported" true
        (Result.is_error
           (drive_and_probe impl tiny ~state:"DATA_RECEIVED" ~input:"."))

let test_drive_difference_between_impls () =
  (* the (INITIAL, M) probe distinguishes aiosmtpd from the others *)
  let probe impl_name =
    match Impls.find impl_name with
    | None -> Alcotest.fail "missing impl"
    | Some impl -> (
        match drive_and_probe impl reference_graph ~state:"INITIAL" ~input:"M" with
        | Ok r -> r
        | Error m -> Alcotest.fail m)
  in
  check_str "aiosmtpd accepts" "250" (probe "aiosmtpd");
  check_str "smtpd rejects" "503" (probe "smtpd");
  check_str "opensmtpd rejects" "503" (probe "opensmtpd")

(* property: any command sequence keeps every implementation in sync
   with the reference except at the documented quirk point *)
let prop_sessions_agree_modulo_quirk =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:200
       ~name:"smtpd/opensmtpd replies equal the reference on random sessions"
       QCheck2.Gen.(list_size (int_range 0 8)
                      (oneofl [ "H"; "E"; "M"; "R"; "D"; "."; "Q"; "x" ]))
       (fun letters ->
         let commands = List.map Machine.command_of_letter letters in
         let reference = Machine.run_session commands in
         List.for_all
           (fun name ->
             match Impls.find name with
             | Some impl -> Impls.run_session impl commands = reference
             | None -> false)
           [ "smtpd"; "opensmtpd" ]))

let suite =
  [
    Alcotest.test_case "machine: happy path" `Quick test_happy_path;
    Alcotest.test_case "machine: bad sequences" `Quick test_bad_sequences;
    Alcotest.test_case "machine: multiple recipients" `Quick test_multiple_recipients;
    Alcotest.test_case "machine: data body collected" `Quick test_data_consumes_anything;
    Alcotest.test_case "machine: end-of-data resets" `Quick test_end_data_resets;
    Alcotest.test_case "machine: quit from any state" `Quick test_quit_everywhere;
    Alcotest.test_case "machine: command letters round trip" `Quick test_letters_roundtrip;
    Alcotest.test_case "machine: state names round trip" `Quick test_state_names_roundtrip;
    Alcotest.test_case "machine: declared transitions agree" `Quick
      test_reference_transitions_consistent;
    Alcotest.test_case "quirk: MAIL without HELO" `Quick test_quirk_accepts_mail_without_helo;
    Alcotest.test_case "impls: roster" `Quick test_impls_roster;
    Alcotest.test_case "impls: drive and probe" `Quick test_drive_and_probe;
    Alcotest.test_case "impls: unreachable state" `Quick test_drive_unreachable;
    Alcotest.test_case "impls: probe distinguishes aiosmtpd" `Quick
      test_drive_difference_between_impls;
    prop_sessions_agree_modulo_quirk;
  ]
