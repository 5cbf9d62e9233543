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
    test case, and into [samples_per_path - 1] more at other value
    rotations. Paths that crash (out-of-bounds, division by zero,
    exhausted fuel) are reported too, with [error] set — crashes found
    by the model are test cases in their own right.

    {b The refutation table.} A branch probe that the parent path's
    model does not answer solves the slice of the path condition
    connected to the new conjunct. Before it prepares anything, the
    probe looks the slice up — by the {!Term.intern_id}s of its
    conjuncts, in slice order — in a table of slices already proved
    Unsat, and a hit answers Unsat with the stored search stats: ticks,
    [solver_decisions] and [solver_calls] are charged exactly as the
    search would have charged them. This is exact: a search that finds
    no model visits every consistent prefix of its variable order,
    whatever the value order, so its decisions and conflicts do not
    depend on the rotation or the hint (see {!Solve.solve_with_stats});
    and equal ids name equal constraints. Sat and [Unknown] answers are
    never stored. The table is a {!Term.scope_local}: it lives as long
    as the calling domain's intern table. The synthesis pipeline keeps
    one intern scope per pool worker for a whole run and restarts only
    the variable ids per exploration ({!Term.with_fresh_vids}), so the
    [k] drafts of a model — mutations of one template that share most
    of their branches — refute a shared slice once, not once each.
    Nothing outlives the run. {!refutations_reused} counts the hits. *)

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
  samples_per_path : int;
      (** models per completed path: its model plus this many minus
          one [samples] (default 1, no samples) *)
}

val default_config : config

type path = {
  model : Solve.assignment;
  pc : Term.t list;  (** path condition, most recent first *)
  samples : Solve.assignment array;
      (** [samples.(s - 1)] is the first model of [pc] at value rotation
          [s], for [s = 1 .. samples_per_path - 1], or [model] where that
          search finds none: further concrete witnesses of the path,
          searched from the set the path model was solved from, prepared
          once. They are not ticked or counted in {!stats}. *)
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

val refutations_reused : unit -> int
(** Probes the calling domain's current refutation table has answered
    (see above). An environment figure: which drafts share a table
    depends on the pool's scheduling, so it varies with the pool size,
    and it is never part of {!stats}. *)

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
