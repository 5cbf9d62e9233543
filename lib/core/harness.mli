(** The Symbolic Compiler (§3.5).

    Assembles the complete MiniC program for a model — user type
    definitions, the LLM-implemented module functions, prototypes for
    the built-in regex guards — and the harness entry point of Fig. 1b:

    {v
    EywaOut __eywa_harness(<symbolic inputs>) {
      EywaOut out;
      bool valid = true;
      valid = valid && __eywa_regex_0(x0);   // one per pipe guard
      valid = valid && check_valid(x0, x1);
      if (valid) { out.bad_input = false; out.result = main(x0, x1); }
      else { out.bad_input = true; }
      return out;
    }
    v}

    Inputs are created as symbolic atoms over bounded domains, the
    moral equivalent of [klee_make_symbolic] on every base type. *)

module Sv = Eywa_symex.Sv

val entry_name : string
val out_struct : string

val build :
  Graph.t ->
  main:Emodule.func ->
  funcs:Eywa_minic.Ast.func list ->
  Eywa_minic.Ast.program
(** Full program: typedefs, regex prototypes, [funcs] (the generated
    module implementations, callees first), and the harness. *)

val symbolic_inputs :
  alphabet:char list -> Emodule.func -> (string * Sv.t) list
(** One symbolic value per input argument of the main module, named
    after the argument. [alphabet] is the candidate character set for
    string and char atoms (NUL is always added, so strings can be
    shorter than their bound). *)

val natives_symbolic : Graph.t -> Emodule.func -> (string * (Sv.t list -> Sv.t)) list
(** Regex guards as pure symbolic natives (term-returning). *)

val natives_concrete :
  Graph.t ->
  Emodule.func ->
  (string * (Eywa_minic.Value.t list -> Eywa_minic.Value.t)) list
(** The same guards for concrete replay with {!Eywa_minic.Interp}.
    Each guard's automaton is compiled once, when the list is built. *)
