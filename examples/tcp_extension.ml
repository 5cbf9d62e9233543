(* TCP: the paper's §6 future work, implemented.

   "Our SMTP experience showed us that LLMs can also be used to drive
   protocols to specified states for testing, but we have only
   scratched the surface. We hope to explore this capability further to
   automatically test more complex stateful protocols like TCP."

   This example runs the identical stateful pipeline (model synthesis,
   second-LLM-call state-graph extraction, BFS driving, differential
   testing) on the RFC 793 connection machine, against three TCP stack
   variants — and finds the handshake-bypass and missing-RST bugs.

   Run with: dune exec examples/tcp_extension.exe *)

module Model_def = Eywa_models.Model_def
module Tcp_models = Eywa_models.Tcp_models
module Tcp_adapter = Eywa_models.Tcp_adapter
module Stategraph = Eywa_stategraph.Stategraph
module Difftest = Eywa_difftest.Difftest

let oracle = Eywa_llm.Gpt.oracle ()

let () =
  let collector = Eywa_core.Instrument.Collector.create () in
  match
    Model_def.synthesize ~sink:(Eywa_core.Instrument.Collector.sink collector)
      ~k:5 ~oracle Tcp_models.server
  with
  | Error e -> failwith e
  | Ok synth -> (
      Printf.printf "TCP: %d unique (state, segment) tests\n"
        (List.length synth.unique_tests);
      match Tcp_adapter.state_graph_for synth with
      | Error m -> failwith m
      | Ok graph ->
          Printf.printf "extracted state graph: %d transitions over %d states\n"
            (List.length (Stategraph.transitions graph))
            (List.length (Stategraph.states graph));
          (match Stategraph.path_to graph ~start:"LISTEN" ~goal:"LAST_ACK" with
          | Some inputs ->
              Printf.printf "driving sequence to LAST_ACK: %s\n"
                (String.concat " " inputs)
          | None -> print_endline "LAST_ACK unreachable");
          let report = Tcp_adapter.run ~graph synth.unique_tests in
          Printf.printf "\n%d tests, %d disagreeing, %d unique tuples\n"
            report.Difftest.total_tests report.Difftest.disagreeing_tests
            (List.length report.Difftest.tuples);
          List.iter
            (fun (d, n) ->
              Printf.printf "  (%s, %s, got %s, expected %s) x%d\n"
                d.Difftest.d_impl d.Difftest.d_field d.Difftest.d_got
                d.Difftest.d_majority n)
            report.Difftest.tuples;
          print_endline "\nroot causes:";
          List.iter
            (fun (impl, q) ->
              Printf.printf "  %-11s %s\n" impl
                (match q with
                | Eywa_tcp.Machine.Data_before_established ->
                    "data accepted before the handshake completes"
                | Eywa_tcp.Machine.No_rst_on_bad_segment ->
                    "no RST for unacceptable segments"))
            (Tcp_adapter.quirks_triggered ~graph synth.unique_tests);
          let open Eywa_core.Instrument in
          let s = Collector.summary collector in
          Printf.printf "\npipeline: %d draws, %d symex ticks (deterministic)\n"
            (Collector.get s Stat.draws)
            (Collector.get s Stat.symex_ticks))
