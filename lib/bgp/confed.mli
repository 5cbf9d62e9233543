(** BGP confederations (RFC 5065).

    A confederation splits an AS into sub-ASes: sessions between
    members of the same sub-AS are iBGP, between different sub-ASes
    confed-eBGP, and announcements leaving the confederation drop the
    confederation segments and show the confederation identifier. *)

type config = {
  confed_id : int;  (** the AS number the outside world sees *)
  sub_as : int;  (** this router's member AS *)
  members : int list;  (** all member sub-AS numbers *)
}

type session =
  | Ibgp
  | Ebgp_confed  (** between sub-ASes of one confederation *)
  | Ebgp
  | Session_mismatch
      (** the two ends disagree about the session type; no routes flow
          (the §4.3 confederation bug scenario) *)

val session_to_string : session -> string

val classify :
  ?quirks:Quirks.t Eywa_quirkset.Quirkset.t ->
  config option ->
  local_as:int ->
  peer_as:int ->
  peer_in_confed:bool ->
  session
(** The session type this router believes it has with the peer. *)

val agree :
  ?quirks:Quirks.t Eywa_quirkset.Quirkset.t ->
  config option ->
  local_as:int ->
  peer_as:int ->
  peer_in_confed:bool ->
  session
(** Both ends' views combined: [Session_mismatch] unless the router's
    view and the (quirk-free) peer's view coincide. *)

val export_path :
  ?quirks:Quirks.t Eywa_quirkset.Quirkset.t ->
  config option ->
  session ->
  local_as:int ->
  ?replace_as:int * bool ->
  Aspath.t ->
  Aspath.t
(** Path updates applied when announcing over the session:
    iBGP leaves the path alone; confed-eBGP prepends the sub-AS as a
    confederation segment; eBGP strips confederation segments and
    prepends the confederation id (or the local AS outside a
    confederation). [replace_as = (new_as, replace)] models
    [local-as new_as replace-as]. *)
