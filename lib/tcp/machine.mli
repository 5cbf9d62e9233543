(** TCP connection state machine (server view) — the extension the
    paper's §6 proposes ("we hope to explore ... more complex stateful
    protocols like TCP").

    Segments use single-letter model encoding: S=SYN, A=ACK, F=FIN,
    R=RST, D=data. Replies are the segment kinds the server sends back
    ("SA", "A", "FA", "R", or "-" for silence). *)

type state =
  | Closed
  | Listen
  | Syn_rcvd
  | Established
  | Close_wait
  | Last_ack

type segment = Syn | Ack | Fin | Rst | Data | Other of string

type quirk =
  | Data_before_established
      (** data segments accepted (ACKed) while still in SYN_RCVD — the
          handshake is not enforced *)
  | No_rst_on_bad_segment
      (** silently drops unacceptable segments instead of answering RST *)

val quirk_to_string : quirk -> string
(** Kebab-case name, as root causes are printed. *)

val state_to_string : state -> string
val state_of_string : string -> state option

val segment_to_letter : segment -> string
val segment_of_letter : string -> segment

val handle :
  ?quirks:quirk Eywa_quirkset.Quirkset.t -> state -> segment -> string * state
(** One step: the reply ("SA", "A", "FA", "R", "-") and successor. *)

val run_connection :
  ?quirks:quirk Eywa_quirkset.Quirkset.t -> segment list -> string list
(** A fresh connection starts in [Listen]. *)

val reference_transitions : ((string * string) * string) list
