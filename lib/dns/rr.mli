(** Resource records. *)

type rtype = A | AAAA | NS | TXT | CNAME | DNAME | SOA

type rdata =
  | Target of Name.t  (** NS / CNAME / DNAME *)
  | Address of string  (** A / AAAA literal *)
  | Text of string  (** TXT *)
  | Soa_data  (** SOA contents are irrelevant to the tested logic *)

type t = { owner : Name.t; rtype : rtype; rdata : rdata }

val v : Name.t -> rtype -> rdata -> t

val rtype_to_string : rtype -> string
val rtype_of_string : string -> rtype option

val target : t -> Name.t option
(** The rdata name for NS/CNAME/DNAME records. *)

val equal : t -> t -> bool
val compare : t -> t -> int
val to_string : t -> string
(** Owner, type and rdata separated by single spaces, with TXT rdata
    quoted and escaped as an OCaml string literal. *)

val pp : Format.formatter -> t -> unit
(** Prints {!to_string}. *)
