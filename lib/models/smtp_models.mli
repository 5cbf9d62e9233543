(** The SMTP SERVER model of Table 2 (paper Fig. 6). *)

val states : string list
(** The server states, in the order of [state_type]'s enum members. *)

val state_type : Eywa_core.Etype.t
val smtp_alphabet : char list

val server : Model_def.t
val all : Model_def.t list
