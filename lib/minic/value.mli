(** Concrete MiniC runtime values.

    Values are immutable; the interpreter implements assignment by
    functional update of the enclosing variable. Strings are fixed-size
    buffers represented as OCaml strings that contain their NUL bytes
    explicitly (buffer size = [String.length]). *)

type t =
  | Vunit
  | Vbool of bool
  | Vchar of char
  | Vint of int
  | Venum of string * int  (** enum type name, member index *)
  | Vstring of string  (** raw buffer, NULs included *)
  | Vstruct of string * (string * t) list
  | Varray of t array

val equal : t -> t -> bool

val truthy : t -> bool
(** C truthiness of a scalar. @raise Invalid_argument on aggregates. *)

val to_int : t -> int
(** Scalar to integer (bool as 0/1, char as code, enum as index).
    @raise Invalid_argument on aggregates. *)

val of_int : Ast.ty -> int -> t
(** Rebuild a scalar of type [ty] from an integer. *)

val default : ?string_bound:int -> Ast.program -> Ast.ty -> t
(** Zero value of a type: [false], ['\000'], [0], first enum member,
    all-NUL buffer of [string_bound] bytes, zeroed struct/array. *)

val cstring : t -> string
(** Contents of a string buffer up to its first NUL.
    @raise Invalid_argument if not a string. *)

val of_cstring : ?bound:int -> string -> t
(** Buffer of size [max bound (length+1)] holding the given contents
    and a terminating NUL. Default bound 0 (exact fit). *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
