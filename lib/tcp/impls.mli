(** TCP stack variants for the §6 extension experiment. The bug catalog
    is illustrative (this protocol is beyond the paper's evaluation):
    one stack ACKs data before the handshake completes, another never
    answers RST to unacceptable segments. *)

type bug = {
  quirk : Machine.quirk;
  description : string;
  bug_type : string;
}

type t = { name : string; bugs : bug list }

val all : t list
val find : string -> t option
val quirks : t -> Machine.quirk list

val bug_catalog : (string * bug) list
