(* Symbolic/concrete agreement: replay a synthesized suite through the
   concrete interpreter ({!Eywa_fuzz.Coverage.runner}, the replay the
   fuzzer uses) and compare each emitted test with what the program
   really does. *)

module Testcase = Eywa_core.Testcase
module Pipeline = Eywa_core.Pipeline
module Coverage = Eywa_fuzz.Coverage

(* Error text may differ between the two executors ("step budget
   exhausted" in symex, "out of fuel" in the interpreter), so only its
   presence is compared. *)
let agree (a : Testcase.t) (b : Testcase.t) =
  Testcase.to_string { a with error = None }
  = Testcase.to_string { b with error = None }
  && a.bad_input = b.bad_input
  && Option.is_some a.error = Option.is_some b.error

(* Every emitted test of every compiled draw, replayed on that draw's
   program. Returns the tests checked and a description of each
   disagreement. *)
let disagreements g (s : Pipeline.t) =
  let natives = Eywa_core.Harness.natives_concrete g s.main in
  let compiled =
    List.filter
      (fun (r : Pipeline.model_result) -> r.compile_error = None)
      s.results
  in
  List.fold_left2
    (fun (n, bad) (r : Pipeline.model_result) program ->
      let run = Coverage.runner ~natives ~main:s.main program in
      List.fold_left
        (fun (n, bad) (t : Testcase.t) ->
          let got =
            run ~coverage:(Eywa_minic.Interp.coverage_create ()) t.inputs
          in
          if agree t got then (n + 1, bad)
          else
            ( n + 1,
              Printf.sprintf "draw %d\n  symex:    %s\n  concrete: %s" r.index
                (Testcase.to_string t) (Testcase.to_string got)
              :: bad ))
        (n, bad) r.tests)
    (0, []) compiled s.programs
