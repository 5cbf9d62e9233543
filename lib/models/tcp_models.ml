open Eywa_core

(* The TCP extension model (the paper's §6 future work): same shape as
   the SMTP SERVER model — a function from connection state and an
   incoming segment to the reply — so the whole stateful pipeline
   (model synthesis, state-graph extraction, BFS driving) is reused
   unchanged on a deeper state machine. *)

let states =
  [ "CLOSED"; "LISTEN"; "SYN_RCVD"; "ESTABLISHED"; "CLOSE_WAIT"; "LAST_ACK" ]

let state_type = Etype.enum "TcpState" states

let tcp_alphabet = [ 'S'; 'A'; 'F'; 'R'; 'D'; 'x' ]

let server =
  let state =
    Etype.Arg.v "state" state_type "Current state of the TCP connection."
  in
  let segment =
    Etype.Arg.v "segment" (Etype.string_ ~maxsize:1) "The incoming segment kind."
  in
  let result =
    Etype.Arg.v "reply" (Etype.string_ ~maxsize:3)
      "The segment kind the server sends back."
  in
  let main =
    Emodule.func_module "tcp_server_response"
      "A function that takes the current state of a TCP connection and an \
       incoming segment, updates the state and returns the reply segment."
      [ state; segment; result ]
  in
  let g = Graph.create () in
  Graph.call_edge g main [];
  {
    Model_def.id = "TCP";
    protocol = "TCP";
    graph = g;
    main;
    spec_loc = 24;
    alphabet = tcp_alphabet;
    timeout = 5.0;
  }
