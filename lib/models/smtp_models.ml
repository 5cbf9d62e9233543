open Eywa_core

(* The SMTP SERVER model (paper Fig. 6): a function from the server
   state and an input command to the reply. Commands use the
   single-letter encoding (H E M R D . Q) so that bounded symbolic
   strings can reach the strcmp branches; the adapter expands them to
   wire commands when driving implementations. *)

let states =
  [
    "INITIAL"; "HELO_SENT"; "EHLO_SENT"; "MAIL_FROM_RECEIVED";
    "RCPT_TO_RECEIVED"; "DATA_RECEIVED"; "QUITTED";
  ]

let state_type = Etype.enum "State" states

let smtp_alphabet = [ 'H'; 'E'; 'M'; 'R'; 'D'; '.'; 'Q'; 'x' ]

let server =
  let state = Etype.Arg.v "state" state_type "Current state of the SMTP server." in
  let input = Etype.Arg.v "input" (Etype.string_ ~maxsize:1) "Input string." in
  let result = Etype.Arg.v "output" (Etype.string_ ~maxsize:3) "Output string." in
  let main =
    Emodule.func_module "smtp_server_response"
      "A function that takes the current state of the SMTP server, the input \
       string, updates the state and returns the output response."
      [ state; input; result ]
  in
  let g = Graph.create () in
  Graph.call_edge g main [];
  {
    Model_def.id = "SERVER";
    protocol = "SMTP";
    graph = g;
    main;
    spec_loc = 26;
    alphabet = smtp_alphabet;
    timeout = 5.0;
  }

let all = [ server ]
