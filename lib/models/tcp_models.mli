(** The TCP extension model (paper §6 future work): the SMTP SERVER
    shape applied to the RFC 793 connection machine. *)

val states : string list
(** The connection states, in the order of [state_type]'s enum members. *)

val state_type : Eywa_core.Etype.t
val tcp_alphabet : char list
val server : Model_def.t
