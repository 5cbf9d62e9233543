(** Structure-preserving mutations over concrete test inputs.

    Mutators rewrite the input assignment of a {!Eywa_core.Testcase}
    in place of its value tree: string lengths (the declared bounds),
    array sizes and struct fields are preserved, so every mutant is a
    well-typed argument vector for the same harness. Characters and
    string bytes are drawn from the model's alphabet (plus NUL, so
    strings can shorten), and enum mutations stay within the declared
    member range via [Ast.find_enum] — the same enum resolution every
    other pass uses. A mutant shares every subtree it leaves unchanged
    with its parent; nothing is ever written in place. *)

type kind =
  | Byte  (** replace one scalar site with an interesting/alphabet value *)
  | Arith  (** small additive nudge on one numeric/enum/char site *)
  | Enum  (** re-draw one enum site within its member range *)
  | Havoc  (** a short random burst of the above *)
  | Splice  (** per-argument crossover with another corpus entry *)

val all : kind list
(** Every mutator, in a fixed canonical order. *)

val kind_to_string : kind -> string
(** Stable lowercase name, used in cache keys and CLI flags. *)

type sites
(** How many mutation sites each argument of an input vector holds. A
    function of the vector's shape alone, which every mutant keeps:
    count a corpus entry's sites once and pass them with each of its
    mutations. *)

val sites : (string * Eywa_minic.Value.t) list -> sites

val apply :
  sites:sites ->
  program:Eywa_minic.Ast.program ->
  alphabet:char list ->
  rng:Rng.t ->
  kind ->
  other:(string * Eywa_minic.Value.t) list option ->
  (string * Eywa_minic.Value.t) list ->
  (string * Eywa_minic.Value.t) list
(** One mutation of the named input vector. [other] supplies the
    crossover partner for [Splice] (ignored by the rest; [Splice]
    degrades to [Havoc] without one). [sites] must be those of a vector
    of the same shape as [inputs]. Pure in (rng
    stream, inputs): the same stream position yields the same mutant. *)
