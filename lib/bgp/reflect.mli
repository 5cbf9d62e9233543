(** Route reflection (RFC 4456). *)

type peer_type = Client | Non_client | External

val should_reflect : from_:peer_type -> to_:peer_type -> bool
(** Whether a route reflector propagates a route learned [from_] to a
    neighbour of kind [to_]: routes from external peers and clients go
    to everyone; routes from non-clients only to clients and external
    peers. *)

val reflect :
  cluster_id:int -> from_:peer_type -> to_:peer_type -> Route.t -> Route.t option
(** {!should_reflect} plus cluster-list loop protection, encoded as a
    community [(cluster_id, cluster_id)] standing in for the
    CLUSTER_LIST attribute: a route already carrying this router's
    cluster id is dropped when reflected between internal peers. *)
