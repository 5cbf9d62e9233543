(** Concrete replay with edge coverage.

    Wraps {!Eywa_minic.Interp.run} over the harness the same way
    differential replay does — regex guards as concrete natives,
    arguments in declared input order — but collects the interpreter's
    branch-edge coverage map and packages the outcome as a
    {!Eywa_core.Testcase} exactly like the symex path decoder does. *)

module Interp = Eywa_minic.Interp

type runner =
  coverage:Interp.coverage ->
  (string * Eywa_minic.Value.t) list ->
  Eywa_core.Testcase.t
(** Run the harness on one concrete input vector, marking hit edges
    into [coverage]. The result mirrors [Pipeline.path_to_test]:
    an [EywaOut] return is unpacked into [bad_input]/[result], a
    runtime error (or fuel exhaustion) lands in [error]. An input the
    vector does not bind takes its type's default value. *)

val runner :
  ?fuel:int ->
  natives:(string * (Eywa_minic.Value.t list -> Eywa_minic.Value.t)) list ->
  main:Eywa_core.Emodule.func ->
  Eywa_minic.Ast.program ->
  runner
(** The harness of one program made ready for many input vectors: the
    interpreter entry is {!Interp.prepare}d and the declared argument
    order fixed once. Apply it to the program once, then to each
    vector. [fuel] is per run, as for {!Interp.run}. *)

val execute :
  ?fuel:int ->
  natives:(string * (Eywa_minic.Value.t list -> Eywa_minic.Value.t)) list ->
  main:Eywa_core.Emodule.func ->
  coverage:Interp.coverage ->
  Eywa_minic.Ast.program ->
  (string * Eywa_minic.Value.t) list ->
  Eywa_core.Testcase.t
(** One run: a {!runner} applied once. *)

val news : global:Interp.coverage -> Interp.coverage -> int
(** Number of edges in the local map that the global map lacks: a byte
    scan, {!Interp.coverage_news}. *)

val absorb : into:Interp.coverage -> Interp.coverage -> unit
(** Union the local map into the global one ({!Interp.coverage_absorb}). *)

val count : Interp.coverage -> int
(** Distinct edges hit ({!Interp.coverage_count}). *)

val of_suite :
  graph:Eywa_core.Graph.t ->
  main:Eywa_core.Emodule.func ->
  Eywa_minic.Ast.program list ->
  Eywa_core.Testcase.t list ->
  int * int
(** [(edges_hit, edges_total)] of replaying the whole suite over every
    compiled model: per program, the union of edges its executions hit
    against its static edge universe, summed across programs. The
    model-coverage number the report and CLI [stats] print. *)
