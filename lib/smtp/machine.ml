type state =
  | Initial
  | Helo_sent
  | Ehlo_sent
  | Mail_from_received
  | Rcpt_to_received
  | Data_received
  | Quitted

type command =
  | Helo
  | Ehlo
  | Mail_from
  | Rcpt_to
  | Data
  | End_data
  | Quit
  | Other of string

type quirk = Accept_mail_without_helo

let quirk_to_string = function
  | Accept_mail_without_helo -> "accept-mail-without-helo"

let state_to_string = function
  | Initial -> "INITIAL"
  | Helo_sent -> "HELO_SENT"
  | Ehlo_sent -> "EHLO_SENT"
  | Mail_from_received -> "MAIL_FROM_RECEIVED"
  | Rcpt_to_received -> "RCPT_TO_RECEIVED"
  | Data_received -> "DATA_RECEIVED"
  | Quitted -> "QUITTED"

let state_of_string = function
  | "INITIAL" -> Some Initial
  | "HELO_SENT" -> Some Helo_sent
  | "EHLO_SENT" -> Some Ehlo_sent
  | "MAIL_FROM_RECEIVED" -> Some Mail_from_received
  | "RCPT_TO_RECEIVED" -> Some Rcpt_to_received
  | "DATA_RECEIVED" -> Some Data_received
  | "QUITTED" -> Some Quitted
  | _ -> None

let command_to_letter = function
  | Helo -> "H"
  | Ehlo -> "E"
  | Mail_from -> "M"
  | Rcpt_to -> "R"
  | Data -> "D"
  | End_data -> "."
  | Quit -> "Q"
  | Other s -> s

let command_of_letter = function
  | "H" -> Helo
  | "E" -> Ehlo
  | "M" -> Mail_from
  | "R" -> Rcpt_to
  | "D" -> Data
  | "." -> End_data
  | "Q" -> Quit
  | s -> Other s

let command_to_wire = function
  | Helo -> "HELO client.test"
  | Ehlo -> "EHLO client.test"
  | Mail_from -> "MAIL FROM:<alice@test>"
  | Rcpt_to -> "RCPT TO:<bob@test>"
  | Data -> "DATA"
  | End_data -> "."
  | Quit -> "QUIT"
  | Other s -> s

let handle ?(quirks = []) state command =
  let has q = List.mem q quirks in
  match (state, command) with
  | Initial, Helo -> ("250", Helo_sent)
  | Initial, Ehlo -> ("250", Ehlo_sent)
  | Initial, Quit -> ("221", Quitted)
  | Initial, Mail_from when has Accept_mail_without_helo ->
      ("250", Mail_from_received)
  | Initial, (Mail_from | Rcpt_to | Data | End_data | Other _) -> ("503", state)
  | (Helo_sent | Ehlo_sent), Mail_from -> ("250", Mail_from_received)
  | (Helo_sent | Ehlo_sent), Quit -> ("221", Quitted)
  | (Helo_sent | Ehlo_sent), (Helo | Ehlo | Rcpt_to | Data | End_data | Other _) ->
      ("503", state)
  | Mail_from_received, Rcpt_to -> ("250", Rcpt_to_received)
  | Mail_from_received, Quit -> ("221", Quitted)
  | Mail_from_received, (Helo | Ehlo | Mail_from | Data | End_data | Other _) ->
      ("503", state)
  | Rcpt_to_received, Data -> ("354", Data_received)
  | Rcpt_to_received, Rcpt_to -> ("250", state)
  | Rcpt_to_received, Quit -> ("221", Quitted)
  | Rcpt_to_received, (Helo | Ehlo | Mail_from | End_data | Other _) ->
      ("503", state)
  | Data_received, End_data -> ("250", Initial)
  | Data_received, (Helo | Ehlo | Mail_from | Rcpt_to | Data | Quit | Other _) ->
      ("354", state)
  | Quitted, (Helo | Ehlo | Mail_from | Rcpt_to | Data | End_data | Quit | Other _)
    ->
      ("221", state)

let run_session ?quirks commands =
  let rec go state acc = function
    | [] -> List.rev acc
    | c :: rest ->
        let reply, state' = handle ?quirks state c in
        go state' (reply :: acc) rest
  in
  go Initial [] commands

let reference_transitions =
  let t s c s' = ((state_to_string s, command_to_letter c), state_to_string s') in
  [
    t Initial Helo Helo_sent;
    t Initial Ehlo Ehlo_sent;
    t Initial Quit Quitted;
    t Helo_sent Mail_from Mail_from_received;
    t Helo_sent Quit Quitted;
    t Ehlo_sent Mail_from Mail_from_received;
    t Ehlo_sent Quit Quitted;
    t Mail_from_received Rcpt_to Rcpt_to_received;
    t Mail_from_received Quit Quitted;
    t Rcpt_to_received Data Data_received;
    t Rcpt_to_received Quit Quitted;
    t Data_received End_data Initial;
  ]
