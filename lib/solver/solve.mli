(** Backtracking search over finite-domain constraint sets.

    The solver assigns variables in most-constrained-first order and
    prunes with partial evaluation: after each assignment the branch is
    abandoned as soon as some constraint is determined false under the
    partial model. The production search ({!solve_with_stats}, or
    {!prepare} then {!search}) indexes constraints by the variables
    they mention, so each assignment only re-evaluates the constraints
    watching that variable, and values ruled out by unary constraints
    are pre-screened once per prepared set; a
    naive reference that re-evaluates everything is kept as
    {!solve_naive_with_stats} and the two are held bit-for-bit
    equivalent (outcome, model, decision and conflict counts) by the
    test suite. Domains are small by construction (the Eywa pipeline
    bounds every input type), so this is complete and fast in
    practice.

    A partial model is an [int array] indexed by variable id, which
    {!Term} keeps dense per {!Term.with_fresh_vids} scope. The watched
    search reads it through an evaluator ({!peval}) that allocates
    nothing per node and hashes nothing per variable read; the naive
    reference still goes through {!Term.peval}, so holding the two
    searches equal also holds the two evaluators equal. *)

type assignment = int array
(** A (partial) model: [m.(vid)] is variable [vid]'s value, or
    {!unassigned}. A vid at or past [Array.length m] is unassigned
    too, so models of different lengths combine by overlaying. A [Sat]
    model is as long as one more than the largest vid it assigns. *)

val unassigned : int
(** The marker of an unassigned slot: [min_int], which
    {!Term.fresh_var} keeps out of every domain. *)

val lookup : assignment -> int -> int
(** [lookup m vid] is [m.(vid)], or {!unassigned} past the end. *)

type stats = { decisions : int; conflicts : int }

type outcome =
  | Sat of assignment
  | Unsat
  | Unknown  (** step budget exhausted *)

val solve : ?max_decisions:int -> ?rotate:int -> Term.t list -> outcome
(** [solve cs] finds one model of the conjunction of [cs].
    [max_decisions] bounds the search (default [2_000_000]).
    [rotate] (default 0) rotates each variable's value ordering, so
    different rotations of the same satisfiable problem tend to return
    different models — the executor rotates per path to diversify the
    concrete tests it emits, mirroring Klee's per-path value bias. *)

val solve_with_stats :
  ?max_decisions:int ->
  ?rotate:int ->
  ?hint:assignment ->
  Term.t list ->
  outcome * stats
(** Like {!solve}, also returning search statistics. [hint]
    warm-starts the search: each variable whose hinted value is in its
    domain tries that value first, with the rest of the domain
    following in the usual rotated order. The search stays complete,
    so the verdict is that of the hint-free search; only the decision
    count and (for Sat) the first model found may differ. The symbolic
    executor hints feasibility probes with the model the parent path
    carries — never the model-producing solve, whose value order is
    what diversifies emitted tests.

    An [Unsat] answer's stats do not depend on [rotate] or [hint]: a
    search that finds no model visits every consistent prefix of the
    variable order and tries every value under each, in whatever
    order, so its decisions and conflicts are those of any other value
    order. The symbolic executor's refutation table rests on this. *)

type conjunct = {
  term : Term.t;
  vars : Term.var list;
      (** [Term.vars term] (any order of the same variables gives the
          same search) *)
  strict : bool;
      (** [strict term]: no [And]/[Or]/[Ite] anywhere in it, so it
          cannot be refuted while any of its variables is unassigned *)
}
(** A constraint with what {!prepare} needs to know about it, worked
    out once: the symbolic executor builds one when a conjunct joins a
    path, instead of on every solve of that path. *)

val strict : Term.t -> bool

val conjunct : Term.t -> conjunct
(** The constraint with its variables and strictness computed. *)

type prepared
(** A constraint set with its per-set search set-up done: the variable
    order, the watcher lists and the unary admissible masks. Searching
    it at any rotation or hint gives exactly what {!solve_with_stats}
    gives on the same constraints. *)

val prepare : conjunct list -> prepared
(** [prepare cs] sets up the search over the conjunction of [cs]. A
    non-unary constraint is watched at each of its variables, bar a
    strict one, which is watched only at its last variable in search
    order: every earlier check could only answer "undetermined". *)

val search :
  ?max_decisions:int ->
  ?rotate:int ->
  ?hint:assignment ->
  prepared ->
  outcome * stats
(** Runs the watched search on a prepared set; the optional arguments
    mean what they mean for {!solve_with_stats}, which is [prepare]
    followed by [search]. Only the value order depends on [rotate] and
    [hint], so preparing once and searching at several rotations costs
    one set-up. *)

val solve_naive_with_stats :
  ?max_decisions:int -> ?rotate:int -> Term.t list -> outcome * stats
(** The reference search: identical ordering and accounting to
    {!solve_with_stats}, but re-evaluates every constraint after every
    assignment. Kept as the executable specification the watched search
    is tested against; not used on the hot path. *)

val order_vars : Term.t list -> Term.var list
(** The search's variable order: ascending domain size, then descending
    occurrence count, then ascending [vid]. The [vid] tiebreaker makes
    the order a pure function of the constraint set (never of
    [Hashtbl] iteration order). Exposed for the regression test. *)

val peval : assignment -> Term.t -> int option
(** [peval m t] is [Term.peval] under the partial model [m], computed
    the way the watched search computes it (an undetermined subterm
    unwinds to the nearest [And]/[Or] instead of returning an
    [option]). Exposed for the test that holds it equal to
    {!Term.peval}. *)

val value : assignment -> Term.var -> int
(** Value of [v] in the model, defaulting to the first domain element
    for variables the search never needed to constrain. *)

val check : assignment -> Term.t list -> bool
(** [check m cs] re-evaluates every constraint under [m] (unassigned
    variables default as in {!value}); used by tests as a soundness
    oracle. *)
