(** DNS domain names as label sequences.

    A name is a list of labels, leftmost (deepest) first, always
    understood as fully qualified; the root is the empty list.
    ["a.b.test."] is [["a"; "b"; "test"]]. *)

type t = string list

val root : t

val of_string : string -> t
(** Parse dotted notation; a trailing dot is optional, empty labels are
    dropped. ["a..b."] becomes [["a"; "b"]]. *)

val to_string : t -> string
(** Dotted, with trailing dot; root is ["."]. *)

val equal : t -> t -> bool
(** Label by label with [String.equal]: the same answer as [Stdlib.(=)]. *)

val compare : t -> t -> int

val label_count : t -> int

val parent : t -> t option
(** Drop the leftmost label; [None] for the root. *)

val is_suffix : suffix:t -> t -> bool
(** [is_suffix ~suffix n]: [n] ends with the labels of [suffix]
    (equality counts). *)

val is_proper_suffix : suffix:t -> t -> bool

val strip_suffix : suffix:t -> t -> t option
(** Labels of [n] before [suffix]; [None] if not a suffix. *)

val append : t -> t -> t
(** [append prefix suffix]. *)

val is_wildcard : t -> bool
(** Leftmost label is ["*"]. *)

val wildcard_base : t -> t option
(** For ["*.rest"], the ["rest"]; [None] if not a wildcard. *)

val wildcard_matches : wildcard:t -> t -> bool
(** RFC 4592-style: ["*.base"] matches any name strictly below [base]
    (one or more extra labels); the name itself must not equal the
    wildcard owner. A bare ["*"] matches any non-root name. *)

val substitute_suffix : old_suffix:t -> new_suffix:t -> t -> t option
(** DNAME rewriting: replace [old_suffix] by [new_suffix].
    [None] when [old_suffix] does not apply (not a proper suffix). *)

val pp : Format.formatter -> t -> unit
