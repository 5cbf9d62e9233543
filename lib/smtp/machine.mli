(** SMTP server state machine (the model of paper Figs. 6-8).

    Commands carry their single-letter model encoding (H=HELO, E=EHLO,
    M=MAIL FROM, R=RCPT TO, D=DATA, '.'=end of data, Q=QUIT), which is
    how the Eywa SMTP model's bounded string inputs name them. *)

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

type quirk =
  | Accept_mail_without_helo
      (** aiosmtpd (Table 3): accepts MAIL FROM before any HELO/EHLO *)

val quirk_to_string : quirk -> string
(** Kebab-case name, as root causes are printed. *)

val state_to_string : state -> string
(** Uppercase, matching the model's enum member names. *)

val state_of_string : string -> state option

val command_to_letter : command -> string
(** The model's single-letter encoding. *)

val command_of_letter : string -> command

val command_to_wire : command -> string
(** The real protocol line ("MAIL FROM:<a@test>" etc.). *)

val handle :
  ?quirks:quirk Eywa_quirkset.Quirkset.t -> state -> command -> string * state
(** One step: the reply code ("250", "354", "503", "221", "500") and
    the successor state. *)

val run_session :
  ?quirks:quirk Eywa_quirkset.Quirkset.t -> command list -> string list
(** Run a fresh session (starting at [Initial]) through the commands,
    collecting replies. *)

val reference_transitions : ((string * string) * string) list
(** The ground-truth (state, letter) -> state map, for validating the
    extracted state graph. *)
