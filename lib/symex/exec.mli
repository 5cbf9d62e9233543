(** Symbolic execution of MiniC programs — the Klee substitute.

    Explores the program path-by-path in depth-first order. Every
    branch on a symbolic condition forks; both sides are kept when the
    solver proves them feasible under the current path condition. A
    condition that is already a conjunct of the path condition, or
    whose negation is, takes the implied side with no solver call, so
    a path condition never holds the same conjunct twice.
    String builtins fork the way Klee's uclibc models effectively do
    ([strlen] forks per possible length, [strcmp] per distinguishing
    position), which is what produces the paper's "same length"
    corner-case tests (§2.2).

    Each completed path is solved into a concrete model, yielding one
    test case. Paths that crash (out-of-bounds, division by zero,
    exhausted fuel) are reported too, with [error] set — crashes found
    by the model are test cases in their own right. *)

module Term = Eywa_solver.Term
module Solve = Eywa_solver.Solve

type config = {
  max_paths : int;  (** stop after this many completed paths *)
  max_steps : int;  (** per-path statement budget *)
  timeout : float;
      (** exploration budget in "budget seconds" — a deterministic tick
          budget calibrated to roughly one wall-clock second per unit
          on a commodity core, so the cut-off (and hence the test set
          of a timed-out model) is a function of the inputs alone,
          independent of machine speed or pool contention *)
  max_solver_decisions : int;
  string_bound : int;  (** buffer size for locally declared strings *)
}

val default_config : config

type path = {
  model : Solve.assignment;
  pc : Term.t list;  (** path condition, most recent first *)
  pc_vars : Term.var list list;
      (** [Term.vars] of each conjunct of [pc], in the same order —
          listed once, when the conjunct joined the path, so a caller
          can {!Solve.prepare} the path without walking it again *)
  ret : Sv.t;
  error : string option;
}

val step_budget_error : string
(** The [error] of a path cut at [max_steps] statements. Such a path
    completes as a crash test, though the program may not have crashed
    there: the exploration beyond the cut is missing. *)

type stats = {
  paths_completed : int;
  paths_pruned : int;  (** completion solves the solver proved unsat *)
  paths_unknown : int;
      (** feasibility probes and completion solves on which the solver
          hit [max_solver_decisions] ([Solve.Unknown]); such a path is
          dropped like an infeasible one, but counted here, not in
          [paths_pruned] *)
  solver_calls : int;
  solver_decisions : int;
      (** search decisions of the solves that ran: sliced, hinted
          feasibility probes plus completion solves *)
  model_reuses : int;
      (** probes answered by re-checking the parent path's model
          against the new conjunct, with no solve *)
  timed_out : bool;
  ticks_used : int;
      (** exploration ticks consumed against the deterministic budget —
          a machine-independent measure of symex work, comparable
          across hosts (unlike wall seconds) *)
}

val stats_columns : (string * (stats -> int)) list
(** Every [stats] field as a named integer column ([timed_out] as 0/1),
    in the slot order of the draw artifact's [stats] line, which the
    on-disk synthesis cache stores. The trace's symex span lists the
    same columns. A new field appends a column and bumps the artifact
    header in [Pipeline]; reordering columns would misread every cache
    written before. *)

val stats_of_columns : int list -> stats option
(** Inverse of {!stats_columns}: [None] unless the list has exactly one
    value per column. *)

val run :
  ?config:config ->
  ?natives:(string * (Sv.t list -> Sv.t)) list ->
  Eywa_minic.Ast.program ->
  entry:string ->
  args:Sv.t list ->
  assumes:Term.t list ->
  path list * stats
(** Execute [entry] on the given (possibly symbolic) arguments, with
    [assumes] conjoined to the initial path condition (the
    [klee_assume] channel used by regex validity modules). [natives]
    supplies pure host-implemented functions — notably the compiled
    regex guards of [RegexModule]s, which return a boolean term built
    by {!Regex.compile_term} instead of forking. *)
