(* Stateful protocol testing: the SMTP SERVER model (§4.2, Figs. 6-8).

   Synthesizes the server model, issues the second LLM call to turn the
   generated code into a state-transition dictionary, BFS-searches that
   graph to drive implementations into each test's required state, and
   differentially tests aiosmtpd, smtpd and OpenSMTPD — reproducing the
   input-validation finding of Table 3.

   Run with: dune exec examples/smtp_stateful.exe *)

module Model_def = Eywa_models.Model_def
module Smtp_models = Eywa_models.Smtp_models
module Smtp_adapter = Eywa_models.Smtp_adapter
module Stategraph = Eywa_stategraph.Stategraph
module Difftest = Eywa_difftest.Difftest

let oracle = Eywa_llm.Gpt.oracle ()

let () =
  match
    Model_def.synthesize ~cache:(Eywa_core.Cache.create ()) ~k:5 ~oracle
      Smtp_models.server
  with
  | Error e -> failwith e
  | Ok synth -> (
      Printf.printf "SERVER: %d unique (state, input) tests\n"
        (List.length synth.unique_tests);

      (* the second LLM call: code -> python dict (Fig. 8) *)
      let code =
        match
          List.find_opt
            (fun (r : Eywa_core.Pipeline.model_result) -> r.compile_error = None)
            synth.results
        with
        | Some r -> r.c_source
        | None -> failwith "no compiled model"
      in
      print_endline "\n=== second LLM call response (Fig. 8) ===";
      print_endline (Eywa_llm.Gpt.complete_stategraph code);

      match Smtp_adapter.state_graph_for synth with
      | Error m -> failwith m
      | Ok graph ->
          (* drive an implementation to a deep state *)
          (match
             Stategraph.path_to graph ~start:"INITIAL" ~goal:"DATA_RECEIVED"
           with
          | Some inputs ->
              Printf.printf "\ndriving sequence to DATA_RECEIVED: %s\n"
                (String.concat " " inputs)
          | None -> print_endline "DATA_RECEIVED unreachable");

          print_endline "\n=== differential testing ===";
          let report = Smtp_adapter.run ~graph synth.unique_tests in
          Printf.printf "%d tests, %d disagreeing, %d unique tuples\n"
            report.Difftest.total_tests report.Difftest.disagreeing_tests
            (List.length report.Difftest.tuples);
          List.iter
            (fun (d, count) ->
              Printf.printf "  (%s, %s, got %s, expected %s) x%d\n"
                d.Difftest.d_impl d.Difftest.d_field d.Difftest.d_got
                d.Difftest.d_majority count)
            report.Difftest.tuples;
          let found = Smtp_adapter.quirks_triggered ~graph synth.unique_tests in
          if
            List.mem
              ("aiosmtpd", Eywa_smtp.Machine.Accept_mail_without_helo)
              found
          then
            print_endline
              "\nFound the Table 3 aiosmtpd bug: MAIL FROM accepted without \
               HELO/EHLO.")
