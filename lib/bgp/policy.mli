(** Routing policy: prefix lists and route maps. *)

type prefix_list_entry = {
  seq : int;
  permit : bool;
  prefix : Prefix.t;
  ge : int option;  (** minimum mask length matched *)
  le : int option;  (** maximum mask length matched *)
}

type prefix_list = { pl_name : string; entries : prefix_list_entry list }

type match_clause =
  | Match_prefix_list of string
  | Match_community of (int * int)
  | Match_any

type set_clause =
  | Set_local_pref of int
  | Set_med of int
  | Set_community of (int * int)
  | Prepend_as of int

type stanza = {
  stanza_seq : int;
  stanza_permit : bool;
  matches : match_clause list;  (** all must match *)
  sets : set_clause list;
}

type route_map = { rm_name : string; stanzas : stanza list }

val entry_matches :
  ?quirks:Quirks.t Eywa_quirkset.Quirkset.t -> prefix_list_entry -> Prefix.t -> bool
(** One entry against a route's prefix: the entry's prefix must contain
    it and the mask length must satisfy ge/le (or equal the entry's
    length when neither is given). Quirks inject the FRR >= behaviour
    and the GoBGP zero-masklength behaviour. *)

val prefix_list_permits :
  ?quirks:Quirks.t Eywa_quirkset.Quirkset.t -> prefix_list -> Prefix.t -> bool
(** First matching entry decides; no match means deny (BGP default). *)

val apply_route_map :
  ?quirks:Quirks.t Eywa_quirkset.Quirkset.t ->
  prefix_lists:prefix_list list ->
  route_map ->
  Route.t ->
  Route.t option
(** First stanza whose matches all hold decides: [None] for deny,
    [Some route'] with set clauses applied for permit. A route matching
    no stanza is denied. *)
