(** Static checker for MiniC programs.

    Plays the role of clang in the paper's pipeline: a program that
    fails here counts as a compilation failure and the synthesis loop
    skips that model (§4.1). Also enforces the system prompt's rules —
    notably the ban on [strtok] and friends. *)

val check : Ast.program -> (unit, string) result
(** Check every function of the program; [Error msg] carries the first
    failure, rendered for user feedback. *)

val check_exn : Ast.program -> unit
(** @raise Failure when {!check} returns an error. *)
