(** A map from short byte-string keys to non-negative ints, packed into
    two flat byte blocks instead of a node per entry.

    It holds the symbolic executor's refutation table ({!Exec}): tens
    of thousands of small entries that live for a whole synthesis run.
    As a [Hashtbl] they cost three heap blocks each and, once freed,
    leave the small-object pools they filled fragmented for the stages
    after synthesis (measured on the zone-suite benchmark workload:
    about +3.5 % peak heap against about +1.5 % for this layout). Two
    large blocks are freed whole. *)

type t

val create : int -> t
(** [create n] is an empty map with room for about [n / 2] entries
    before it first grows (at least 16 slots). *)

val find : t -> string -> int option

val add : t -> string -> int -> unit
(** [add t key v] binds [key] to [v] unless it is already bound; the
    first binding stays. [v] must be non-negative. *)

val length : t -> int
(** Bound keys. *)
