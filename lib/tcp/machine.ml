type state = Closed | Listen | Syn_rcvd | Established | Close_wait | Last_ack

type segment = Syn | Ack | Fin | Rst | Data | Other of string

type quirk = Data_before_established | No_rst_on_bad_segment

let quirk_to_string = function
  | Data_before_established -> "data-before-established"
  | No_rst_on_bad_segment -> "no-rst-on-bad-segment"

let state_to_string = function
  | Closed -> "CLOSED"
  | Listen -> "LISTEN"
  | Syn_rcvd -> "SYN_RCVD"
  | Established -> "ESTABLISHED"
  | Close_wait -> "CLOSE_WAIT"
  | Last_ack -> "LAST_ACK"

let state_of_string = function
  | "CLOSED" -> Some Closed
  | "LISTEN" -> Some Listen
  | "SYN_RCVD" -> Some Syn_rcvd
  | "ESTABLISHED" -> Some Established
  | "CLOSE_WAIT" -> Some Close_wait
  | "LAST_ACK" -> Some Last_ack
  | _ -> None

let segment_to_letter = function
  | Syn -> "S"
  | Ack -> "A"
  | Fin -> "F"
  | Rst -> "R"
  | Data -> "D"
  | Other s -> s

let segment_of_letter = function
  | "S" -> Syn
  | "A" -> Ack
  | "F" -> Fin
  | "R" -> Rst
  | "D" -> Data
  | s -> Other s

let handle ?(quirks = []) state segment =
  let has q = List.mem q quirks in
  let rst () = if has No_rst_on_bad_segment then "-" else "R" in
  match (state, segment) with
  | Listen, Syn -> ("SA", Syn_rcvd)
  | Listen, Rst -> ("-", Listen)
  | Listen, (Ack | Fin | Data | Other _) -> (rst (), Listen)
  | Syn_rcvd, Ack -> ("-", Established)
  | Syn_rcvd, Rst -> ("-", Listen)
  | Syn_rcvd, Fin -> ("A", Close_wait)
  | Syn_rcvd, Data when has Data_before_established -> ("A", Syn_rcvd)
  | Syn_rcvd, (Syn | Data | Other _) -> (rst (), Syn_rcvd)
  | Established, Data -> ("A", Established)
  | Established, Fin -> ("A", Close_wait)
  | Established, Rst -> ("-", Closed)
  | Established, (Syn | Ack | Other _) -> ("A", Established)
  | Close_wait, Ack -> ("FA", Last_ack)
  | Close_wait, Rst -> ("-", Closed)
  | Close_wait, (Syn | Fin | Data | Other _) -> ("A", Close_wait)
  | Last_ack, Ack -> ("-", Closed)
  | Last_ack, (Syn | Fin | Rst | Data | Other _) -> (rst (), Last_ack)
  | Closed, (Syn | Ack | Fin | Rst | Data | Other _) -> (rst (), Closed)

let run_connection ?quirks segments =
  let rec go state acc = function
    | [] -> List.rev acc
    | s :: rest ->
        let reply, state' = handle ?quirks state s in
        go state' (reply :: acc) rest
  in
  go Listen [] segments

let reference_transitions =
  let t s seg s' =
    ((state_to_string s, segment_to_letter seg), state_to_string s')
  in
  [
    t Listen Syn Syn_rcvd;
    t Syn_rcvd Ack Established;
    t Syn_rcvd Rst Listen;
    t Syn_rcvd Fin Close_wait;
    t Established Fin Close_wait;
    t Established Rst Closed;
    t Close_wait Ack Last_ack;
    t Close_wait Rst Closed;
    t Last_ack Ack Closed;
  ]
