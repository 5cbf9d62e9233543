(** The three SMTP servers of Table 1 (aiosmtpd, smtpd, OpenSMTPD). *)

type bug = {
  quirk : Machine.quirk;
  description : string;
  bug_type : string;
  new_bug : bool;
}

type t = { name : string; bugs : bug list }

val all : t list
val find : string -> t option
val quirks : t -> Machine.quirk list

val run_session : t -> Machine.command list -> string list

val bug_catalog : (string * bug) list
