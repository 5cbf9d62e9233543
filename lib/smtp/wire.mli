(** SMTP wire grammar (RFC 5321 §4.1): parsing command lines and
    formatting replies.

    The session driver speaks {!Machine.command}s; this module is the
    boundary to actual socket lines — parsing is case-insensitive in
    the verb, validates the reverse-path/forward-path brackets, and
    formats the three-digit replies with their standard texts. *)

val parse_command : string -> Machine.command
(** ["MAIL FROM:<a@b>"] -> [Mail_from], ["helo x"] -> [Helo], etc.
    Unrecognised or malformed lines become [Other line]. A lone ["."]
    is [End_data]. *)

val format_command : Machine.command -> string
(** The canonical wire line (same as {!Machine.command_to_wire}). *)

val format_reply : string -> string
(** Expand a reply code to its standard line, e.g. ["250"] ->
    ["250 OK"], ["354"] -> ["354 End data with <CR><LF>.<CR><LF>"]. *)

val parse_reply : string -> (string, string) result
(** The leading three-digit code of a reply line. *)

val run_wire_session :
  ?quirks:Machine.quirk Eywa_quirkset.Quirkset.t -> string list -> string list
(** A full session at the wire level: parse each line, run the machine,
    format each reply. *)
