(** Regular expressions over bounded strings, usable both concretely
    and symbolically.

    This is the reproduction of Appendix A: the paper hand-writes a
    continuation-based C matcher whose branches Klee explores. We
    instead compile the pattern to an NFA and, for the symbolic case,
    unroll NFA reachability over the (bounded) buffer into a single
    constraint term — the exact [klee_assume(match(...))] contract of
    the paper's [RegexModule], with the path blow-up shifted into the
    solver. *)

type t =
  | Empty  (** matches the empty string *)
  | Char of char
  | Class of (char * char) list  (** union of inclusive ranges *)
  | Any  (** any non-NUL character *)
  | Seq of t * t
  | Alt of t * t
  | Star of t

exception Parse_error of string

val parse : string -> t
(** Parse a pattern. Supported syntax: literals, [.], [[a-z*]] classes
    (ranges and single chars), [( )] grouping, [*], [+], [?], [|], and
    [\ ] escapes. @raise Parse_error on malformed patterns. *)

val matcher : t -> string -> bool
(** [matcher re] compiles [re] once and returns its concrete matcher:
    [matcher re s] is true when the whole of [s] (anchored both ends)
    matches. Partially apply it to reuse the compiled automaton. *)

val matches : t -> string -> bool
(** [matches re s] is [matcher re s]: a one-off concrete match. *)

val matches_pattern : string -> string -> bool
(** [matches_pattern pat s] parses and matches in one step. *)

val compile_term : t -> Eywa_solver.Term.t array -> Eywa_solver.Term.t
(** [compile_term re cells] is a term that is true exactly when the
    C string held in [cells] (content up to its first NUL; the final
    cell must be a constant 0) matches [re]. *)

val alphabet_of : t -> char list
(** Characters mentioned by the pattern (class ranges expanded), useful
    for choosing symbolic string domains. *)

val pp : Format.formatter -> t -> unit
