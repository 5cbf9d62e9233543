(** Protocol modules — the units the LLM implements (§3.3).

    A [Func] module carries a name, a natural-language description and
    a typed argument list whose {e last} element is the result (as in
    the paper's examples, where the final [Arg] describes the return
    value). A [Regex] module is the built-in validity filter; a
    [Custom] module is user-supplied C code for specialised logic the
    user wants full control over. *)

type func = {
  name : string;
  desc : string;
  args : Etype.Arg.t list;  (** inputs then result; at least 2 *)
}

type regex = {
  rname : string;  (** generated, unique *)
  pattern : string;
  target : Etype.Arg.t;  (** the argument being constrained *)
}

type custom = { cname : string; source : string  (** C source text *) }

type t = Func of func | Regex of regex | Custom of custom

val func_module : string -> string -> Etype.Arg.t list -> t
(** [func_module name desc args]. @raise Invalid_argument if fewer than
    two args (there must be at least one input and the result). *)

val regex_module : string -> Etype.Arg.t -> t
(** [regex_module pattern arg]; the pattern is validated eagerly.
    @raise Eywa_symex.Regex.Parse_error on a malformed pattern.
    @raise Invalid_argument if [arg] is not a string type. *)

val name : t -> string

val inputs : func -> Etype.Arg.t list
(** All args but the result. *)

val result : func -> Etype.Arg.t

val equal : t -> t -> bool
(** Name-based identity, as modules are registered in one graph. *)
