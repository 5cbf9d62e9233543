(* The eywa command-line interface.

   eywa models                 list the Table 2 models
   eywa prompt MODEL           print the generated LLM prompts
   eywa run MODEL              synthesize and print test cases
   eywa fuzz MODEL             synthesize, then coverage-guided fuzz the suite
   eywa difftest MODEL         run differential testing and triage
   eywa stats MODEL            synthesize + difftest, print stage statistics
   eywa trace FILE             inspect/strip/convert a JSONL trace
   eywa metrics MODEL          synthesize + difftest, print metrics exposition
   eywa bugs                   print the known-bug catalog (Table 3 rows)

   Synthesizing commands accept --cache-dir DIR: draw artifacts are
   content-addressed there and reused by any later invocation with
   the same inputs (output is byte-identical either way).
   run/fuzz/difftest accept --trace-out FILE (JSONL span trace) and
   --metrics-out FILE (Prometheus text exposition); stats accepts
   --json for the bench-compatible summary schema. *)

open Cmdliner

module Model_def = Eywa_models.Model_def
module All = Eywa_models.All_models
module Difftest = Eywa_difftest.Difftest
module Protocol = Eywa_models.Protocol
module Collector = Eywa_core.Instrument.Collector

let oracle = Eywa_llm.Gpt.oracle ()

let ( let* ) = Result.bind

(* every model [All.find] searches: Table 2's thirteen, then the
   extensions *)
let roster = All.all @ All.extensions

let find_model id =
  match All.find (String.uppercase_ascii id) with
  | Some m -> Ok m
  | None ->
      Error
        (Printf.sprintf "unknown model %S; available: %s" id
           (String.concat ", " (List.map (fun (m : Model_def.t) -> m.id) roster)))

(* ----- arguments ----- *)

let model_arg =
  let doc = "Model name from Table 2 (e.g. DNAME, RMAP-PL, SERVER), or TCP for the extension model." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"MODEL" ~doc)

let k_arg =
  let doc = "Number of model implementations to draw from the LLM." in
  Arg.(value & opt int 10 & info [ "k" ] ~docv:"K" ~doc)

let temperature_arg =
  let doc = "Sampling temperature (0.0 - 1.0)." in
  Arg.(value & opt float 0.6 & info [ "temperature"; "t" ] ~docv:"TAU" ~doc)

let seed_arg =
  let doc = "Base random seed." in
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)

let timeout_arg =
  let doc =
    "Symbolic-execution budget per model, in budget seconds (a \
     deterministic tick budget calibrated to roughly wall seconds)."
  in
  Arg.(value & opt (some float) None & info [ "timeout" ] ~docv:"SECONDS" ~doc)

let jobs_arg =
  let doc =
    "Worker domains for the synthesis, fuzz and difftest pools. Defaults to \
     $(b,EYWA_JOBS) or the recommended domain count; output is identical at \
     any value."
  in
  Arg.(value & opt (some int) None & info [ "jobs"; "j" ] ~docv:"N" ~doc)

let cache_dir_arg =
  let doc =
    "Persist per-draw synthesis artifacts in this directory, keyed by a \
     content hash of every input (model, prompts, seed, temperature, \
     budgets). Later runs with the same inputs reuse them; the output is \
     byte-identical to an uncached run."
  in
  Arg.(value & opt (some string) None & info [ "cache-dir" ] ~docv:"DIR" ~doc)

(* A cache whose disk writes fail still serves this run from memory;
   say so once, on exit, rather than leave later runs silently cold. *)
let cache_of = function
  | None -> None
  | Some dir ->
      let cache = Eywa_core.Cache.create ~dir () in
      at_exit (fun () ->
          match Eywa_core.Cache.write_failures cache with
          | 0 -> ()
          | n ->
              Printf.eprintf
                "eywa: warning: %d cache write(s) to %s failed; those entries \
                 were not persisted\n"
                n dir);
      Some cache

let limit_arg =
  let doc = "Print at most this many tests." in
  Arg.(value & opt int 50 & info [ "limit" ] ~docv:"N" ~doc)

let trace_out_arg =
  let doc =
    "Write the run's span trace as JSONL to this file (one item per line, \
     meta line first). Deterministic fields never include wall time; strip \
     the rest with 'eywa trace FILE --strip-wall'."
  in
  Arg.(value & opt (some string) None & info [ "trace-out" ] ~docv:"FILE" ~doc)

let metrics_out_arg =
  let doc = "Write a Prometheus-style metrics exposition to this file." in
  Arg.(value & opt (some string) None & info [ "metrics-out" ] ~docv:"FILE" ~doc)

(* the run's event log, kept only when a trace or metrics file was
   requested; both files render it once the run is over *)
let collector_for trace_out metrics_out =
  match (trace_out, metrics_out) with
  | None, None -> None
  | _ -> Some (Collector.create ())

let write_file path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc

let finish_obs ~label collector trace_out metrics_out =
  Option.iter
    (fun c ->
      let events = Collector.events c in
      Option.iter
        (fun path ->
          write_file path
            (Eywa_obs.Export.to_jsonl (Eywa_obs.Trace.of_events ~label events));
          Printf.printf "wrote trace to %s\n" path)
        trace_out;
      Option.iter
        (fun path ->
          write_file path (Eywa_obs.Metrics.expose events);
          Printf.printf "wrote metrics to %s\n" path)
        metrics_out)
    collector

let fuzz_seed_arg =
  let doc = "Base fuzz seed; draw i fuzzes at SEED + i." in
  Arg.(value & opt int 42 & info [ "fuzz-seed" ] ~docv:"SEED" ~doc)

let budget_arg =
  let doc =
    "Candidate executions per model draw — a deterministic tick budget, \
     never wall clock."
  in
  Arg.(value & opt int 500 & info [ "budget" ] ~docv:"N" ~doc)

let max_new_tests_arg =
  let doc = "Stop a draw's fuzz loop after this many coverage-increasing tests." in
  Arg.(value & opt int 64 & info [ "max-new-tests" ] ~docv:"N" ~doc)

let suite_coverage (s : Eywa_core.Pipeline.t) (m : Model_def.t) tests =
  Eywa_fuzz.Coverage.of_suite ~graph:m.Model_def.graph ~main:s.main
    s.programs tests

let save_arg =
  let doc = "Also save the generated suite to this file." in
  Arg.(value & opt (some string) None & info [ "save" ] ~docv:"FILE" ~doc)

let suite_arg =
  let doc = "Saved test-suite file (from 'eywa run --save')." in
  Arg.(required & pos 1 (some string) None & info [] ~docv:"SUITE" ~doc)

let version_arg =
  let doc = "DNS implementation versions to test: old or current." in
  Arg.(value & opt (enum [ ("old", Eywa_dns.Impls.Old);
                           ("current", Eywa_dns.Impls.Current) ])
         Eywa_dns.Impls.Old
       & info [ "versions" ] ~docv:"VERSIONS" ~doc)

(* ----- commands ----- *)

let models_cmd =
  let run () =
    Printf.printf "%-10s %-11s %-9s %s\n" "Protocol" "Model" "Spec LoC" "Entry module";
    List.iter
      (fun (m : Model_def.t) ->
        Printf.printf "%-10s %-11s %-9d %s%s\n" m.protocol m.id m.spec_loc
          (Eywa_core.Emodule.name m.main)
          (if List.memq m All.extensions then "  (extension model, not in Table 2)"
           else ""))
      roster;
    `Ok ()
  in
  Cmd.v (Cmd.info "models" ~doc:"List the available protocol models.")
    Term.(ret (const run $ const ()))

let prompt_cmd =
  let run id =
    match find_model id with
    | Error e -> `Error (false, e)
    | Ok m -> (
        match Eywa_core.Graph.synthesis_order m.graph ~main:m.main with
        | Error e -> `Error (false, e)
        | Ok order ->
            List.iter
              (fun em ->
                match em with
                | Eywa_core.Emodule.Func f ->
                    let p = Eywa_core.Prompt.for_module m.graph f in
                    Printf.printf "=== prompt for %s ===\n%s\n\n" f.name
                      p.Eywa_core.Prompt.user
                | Eywa_core.Emodule.Regex _ | Eywa_core.Emodule.Custom _ -> ())
              order;
            `Ok ())
  in
  Cmd.v (Cmd.info "prompt" ~doc:"Print the LLM prompts a model generates.")
    Term.(ret (const run $ model_arg))

let run_cmd =
  let run id k temperature seed timeout jobs limit save cache_dir trace_out
      metrics_out =
    match find_model id with
    | Error e -> `Error (false, e)
    | Ok m -> (
        let collector = collector_for trace_out metrics_out in
        match
          Model_def.synthesize ?cache:(cache_of cache_dir)
            ?sink:(Option.map Collector.sink collector) ~k ~temperature ~seed
            ?timeout ?jobs ~oracle m
        with
        | Error e -> `Error (false, e)
        | Ok s ->
            Printf.printf
              "%s: %d unique tests, generated LoC %d/%d, %d/%d models compiled\n"
              m.id
              (List.length s.unique_tests)
              s.loc_min s.loc_max (List.length s.programs) k;
            List.iteri
              (fun i t ->
                if i < limit then
                  print_endline ("  " ^ Eywa_core.Testcase.to_string t))
              s.unique_tests;
            if List.length s.unique_tests > limit then
              Printf.printf "  ... (%d more)\n"
                (List.length s.unique_tests - limit);
            (match save with
            | Some path ->
                Eywa_core.Serialize.save path s.unique_tests;
                Printf.printf "saved %d tests to %s\n"
                  (List.length s.unique_tests) path
            | None -> ());
            finish_obs ~label:m.id collector trace_out metrics_out;
            `Ok ())
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Synthesize a model and print its generated tests.")
    Term.(ret (const run $ model_arg $ k_arg $ temperature_arg $ seed_arg
               $ timeout_arg $ jobs_arg $ limit_arg $ save_arg $ cache_dir_arg
               $ trace_out_arg $ metrics_out_arg))

let fuzz_cmd =
  let run id k temperature seed timeout jobs fuzz_seed budget max_new_tests
      limit save cache_dir trace_out metrics_out =
    match find_model id with
    | Error e -> `Error (false, e)
    | Ok m -> (
        let cache = cache_of cache_dir in
        let collector = collector_for trace_out metrics_out in
        let sink = Option.map Collector.sink collector in
        match
          Model_def.synthesize ?cache ?sink ~k ~temperature ~seed ?timeout ?jobs
            ~oracle m
        with
        | Error e -> `Error (false, e)
        | Ok s -> (
            let fuzz_config =
              {
                Eywa_fuzz.Fuzz.default_config with
                fuzz_seed;
                budget;
                max_new_tests;
              }
            in
            match
              Model_def.fuzz ?cache ?sink ~fuzz_config ~k ~temperature ~seed
                ?timeout ?jobs ~oracle m s
            with
            | Error e -> `Error (false, e)
            | Ok f ->
                Printf.printf
                  "%s: %d symex tests + %d fuzz tests = %d combined\n" m.id
                  (List.length s.unique_tests)
                  (List.length f.Eywa_fuzz.Fuzz.fuzz_tests)
                  (List.length f.Eywa_fuzz.Fuzz.combined_tests);
                List.iter
                  (fun (d : Eywa_fuzz.Fuzz.draw_fuzz) ->
                    Printf.printf
                      "  draw %2d: %4d execs, edges %3d -> %3d of %3d, %d new \
                       tests\n"
                      d.f_index d.execs d.edges_seed d.edges_after
                      d.edges_static
                      (List.length d.new_tests))
                  f.Eywa_fuzz.Fuzz.per_draw;
                List.iteri
                  (fun i t ->
                    if i < limit then
                      print_endline ("  " ^ Eywa_core.Testcase.to_string t))
                  f.Eywa_fuzz.Fuzz.fuzz_tests;
                if List.length f.Eywa_fuzz.Fuzz.fuzz_tests > limit then
                  Printf.printf "  ... (%d more)\n"
                    (List.length f.Eywa_fuzz.Fuzz.fuzz_tests - limit);
                (match save with
                | Some path ->
                    Eywa_core.Serialize.save path f.Eywa_fuzz.Fuzz.combined_tests;
                    Printf.printf "saved %d tests to %s\n"
                      (List.length f.Eywa_fuzz.Fuzz.combined_tests)
                      path
                | None -> ());
                finish_obs ~label:m.id collector trace_out metrics_out;
                `Ok ()))
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Synthesize a model, then grow its test suite with the \
          coverage-guided mutational fuzzer (deterministic in the fuzz seed \
          and execution budget).")
    Term.(ret (const run $ model_arg $ k_arg $ temperature_arg $ seed_arg
               $ timeout_arg $ jobs_arg $ fuzz_seed_arg $ budget_arg
               $ max_new_tests_arg $ limit_arg $ save_arg $ cache_dir_arg
               $ trace_out_arg $ metrics_out_arg))

let replay_cmd =
  let run id suite version jobs =
    match find_model id with
    | Error e -> `Error (false, e)
    | Ok m -> (
        match Protocol.replay ?jobs ~version m with
        | Error e -> `Error (false, e)
        | Ok replay -> (
            match Eywa_core.Serialize.load suite with
            | Error e -> `Error (false, e)
            | Ok tests ->
                Printf.printf "loaded %d tests from %s\n" (List.length tests)
                  suite;
                Format.printf "%a" Difftest.pp_report (replay tests);
                `Ok ()))
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:"Differentially replay a saved test suite without re-synthesis.")
    Term.(ret (const run $ model_arg $ suite_arg $ version_arg $ jobs_arg))

let difftest_cmd =
  let run id k temperature seed timeout jobs version cache_dir trace_out
      metrics_out =
    match find_model id with
    | Error e -> `Error (false, e)
    | Ok m -> (
        let collector = collector_for trace_out metrics_out in
        let osink = Option.map Collector.sink collector in
        match
          Model_def.synthesize ?cache:(cache_of cache_dir) ?sink:osink ~k
            ~temperature ~seed ?timeout ?jobs ~oracle m
        with
        | Error e -> `Error (false, e)
        | Ok s ->
            Printf.printf "%s: %d unique tests\n" m.id (List.length s.unique_tests);
            match
              let* report = Protocol.report ?jobs ?sink:osink ~version m s in
              let* causes = Protocol.root_causes ?jobs ~version [ (m, s) ] in
              Ok (report, causes)
            with
            | Error e -> `Error (false, e)
            | Ok (report, causes) ->
                Format.printf "%a" Difftest.pp_report report;
                print_endline "root causes:";
                List.iter
                  (fun (impl, q) -> Printf.printf "  %-12s %s\n" impl q)
                  causes;
                finish_obs ~label:m.id collector trace_out metrics_out;
                `Ok ())
  in
  Cmd.v
    (Cmd.info "difftest"
       ~doc:"Synthesize a model and differentially test the implementations.")
    Term.(ret (const run $ model_arg $ k_arg $ temperature_arg $ seed_arg
               $ timeout_arg $ jobs_arg $ version_arg $ cache_dir_arg
               $ trace_out_arg $ metrics_out_arg))

let report_cmd =
  let run id k temperature seed timeout jobs version cache_dir =
    match find_model id with
    | Error e -> `Error (false, e)
    | Ok m ->
        if m.protocol <> "DNS" then
          `Error (false, "report currently supports DNS models")
        else (
          match
            Model_def.synthesize ?cache:(cache_of cache_dir) ~k ~temperature
              ~seed ?timeout ?jobs ~oracle m
          with
          | Error e -> `Error (false, e)
          | Ok s ->
              let coverage = suite_coverage s m s.unique_tests in
              print_string
                (Eywa_models.Report.dns ?jobs ~coverage ~model_id:m.id ~version
                   s.unique_tests);
              `Ok ())
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:"Synthesize a DNS model and print a filing-ready markdown bug report.")
    Term.(ret (const run $ model_arg $ k_arg $ temperature_arg $ seed_arg
               $ timeout_arg $ jobs_arg $ version_arg $ cache_dir_arg))

let stats_json_arg =
  let doc =
    "Print the statistics as JSON instead of text, using the same schema as \
     the bench harness's --summary-json totals, so the two outputs diff \
     cleanly in CI."
  in
  Arg.(value & flag & info [ "json" ] ~doc)

(* [stats] and [metrics]: synthesize, then difftest, with every stage's
   events in one collector; [render flag] prints what the command shows
   of the run, [flag] being the command's one own option *)
let observed_term render flag_arg =
  let run id k temperature seed timeout jobs version cache_dir flag =
    match find_model id with
    | Error e -> `Error (false, e)
    | Ok m -> (
        let collector = Collector.create () in
        let sink = Collector.sink collector in
        match
          let* s =
            Model_def.synthesize ?cache:(cache_of cache_dir) ~sink ~k
              ~temperature ~seed ?timeout ?jobs ~oracle m
          in
          let* _ = Protocol.report ?jobs ~sink ~version m s in
          Ok s
        with
        | Error e -> `Error (false, e)
        | Ok s ->
            render flag ~k ~seed ~temperature m s collector;
            `Ok ())
  in
  Term.(ret (const run $ model_arg $ k_arg $ temperature_arg $ seed_arg
             $ timeout_arg $ jobs_arg $ version_arg $ cache_dir_arg $ flag_arg))

let stats_cmd =
  let render as_json ~k ~seed ~temperature (m : Model_def.t)
      (s : Eywa_core.Pipeline.t) collector =
    let summary = Collector.summary collector in
    let hit, total = suite_coverage s m s.unique_tests in
    if as_json then
      let module Json = Eywa_core.Serialize.Json in
      print_string
        (Json.to_string_pretty
           (Json.Obj
              [
                ("bench", Json.Str "eywa-stats");
                ("model", Json.Str m.id);
                ("k", Json.Int k);
                ("seed", Json.Int seed);
                ("temperature", Json.Float temperature);
                ("coverage_edges_hit", Json.Int hit);
                ("coverage_edges_total", Json.Int total);
                ("totals", Eywa_obs.Export.summary_totals summary);
              ]))
    else begin
      Printf.printf "%s: pipeline statistics (k=%d, seed=%d, tau=%.2f)\n" m.id
        k seed temperature;
      print_endline (Format.asprintf "%a" Collector.pp_summary summary);
      Printf.printf "coverage     %d / %d branch edges over %d models%s\n" hit
        total
        (List.length s.programs)
        (if total > 0 then
           Printf.sprintf " (%.0f%%)"
             (100.0 *. float_of_int hit /. float_of_int total)
         else "")
    end
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Synthesize a model (and difftest it) with a collecting \
          instrumentation sink, then print per-stage statistics: draws, \
          rejections, deterministic symex ticks, paths, solver calls, cache \
          hits/misses, difftest disagreements. With --json, print the \
          bench-compatible summary schema instead.")
    (observed_term render stats_json_arg)

let trace_file_arg =
  let doc = "Trace JSONL file (from --trace-out), or any JSON file with --json." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc)

let strip_wall_arg =
  let doc =
    "Drop environment-classed items and attributes (wall-clock seconds, \
     cache traffic, pool utilization). The stripped trace of a run is \
     byte-identical at any --jobs and any cache state."
  in
  Arg.(value & flag & info [ "strip-wall" ] ~doc)

let trace_out_file_arg =
  let doc = "Write the (possibly stripped) canonical JSONL here instead of stdout." in
  Arg.(value & opt (some string) None & info [ "out" ] ~docv:"FILE" ~doc)

let chrome_arg =
  let doc =
    "Also write a Chrome trace_event JSON file viewable in about://tracing \
     or Perfetto (logical clock, 1 tick = 1 ms)."
  in
  Arg.(value & opt (some string) None & info [ "chrome" ] ~docv:"FILE" ~doc)

let json_doc_arg =
  let doc =
    "Treat FILE as a single JSON document (e.g. a --summary-json or stats \
     --json output): validate it and check it round-trips through the \
     canonical printer."
  in
  Arg.(value & flag & info [ "json" ] ~doc)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let trace_cmd =
  let module Json = Eywa_core.Serialize.Json in
  let run file strip_wall out chrome as_json =
    match read_file file with
    | exception Sys_error e -> `Error (false, e)
    | contents ->
        if as_json then (
          match Json.of_string contents with
          | Error e -> `Error (false, Printf.sprintf "%s: invalid JSON: %s" file e)
          | Ok v -> (
              (* canonical print must re-parse to the same value *)
              match Json.of_string (Json.to_string v) with
              | Ok v' when v' = v ->
                  Printf.printf "%s: valid JSON (%d bytes), round-trips through Serialize.Json\n"
                    file (String.length contents);
                  `Ok ()
              | Ok _ | Error _ ->
                  `Error (false, Printf.sprintf "%s: canonical round-trip mismatch" file)))
        else
          match Eywa_obs.Export.of_jsonl contents with
          | Error e -> `Error (false, Printf.sprintf "%s: %s" file e)
          | Ok t -> (
              match Eywa_obs.Trace.well_formed t with
              | Error e ->
                  `Error (false, Printf.sprintf "%s: malformed trace: %s" file e)
              | Ok () -> (
                  (* every trace we accept must survive the serializer *)
                  match Eywa_obs.Export.of_jsonl (Eywa_obs.Export.to_jsonl t) with
                  | Ok t' when t' = t ->
                      let t = if strip_wall then Eywa_obs.Trace.strip t else t in
                      let spans, events =
                        List.fold_left
                          (fun (s, e) -> function
                            | Eywa_obs.Trace.Span _ -> (s + 1, e)
                            | Eywa_obs.Trace.Event _ -> (s, e + 1))
                          (0, 0) t.Eywa_obs.Trace.items
                      in
                      (match out with
                      | Some path ->
                          write_file path (Eywa_obs.Export.to_jsonl t);
                          Printf.printf
                            "%s: well-formed trace %S, %d spans, %d events -> %s%s\n"
                            file t.Eywa_obs.Trace.label spans events path
                            (if strip_wall then " (wall-clock stripped)" else "")
                      | None ->
                          if strip_wall then
                            print_string (Eywa_obs.Export.to_jsonl t)
                          else
                            Printf.printf
                              "%s: well-formed trace %S, %d spans, %d events\n"
                              file t.Eywa_obs.Trace.label spans events);
                      (match chrome with
                      | Some path ->
                          write_file path (Eywa_obs.Export.chrome_trace t);
                          Printf.printf "wrote Chrome trace to %s\n" path
                      | None -> ());
                      `Ok ()
                  | Ok _ | Error _ ->
                      `Error
                        (false, Printf.sprintf "%s: JSONL round-trip mismatch" file)))
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Validate, strip, or convert a JSONL span trace written by \
          --trace-out. Checks well-formedness (unique ids, every span \
          closed, parents open before children) and that the file \
          round-trips through the canonical serializer; --strip-wall \
          removes everything environment-dependent, --chrome exports for \
          about://tracing, --json instead validates a plain JSON document.")
    Term.(ret (const run $ trace_file_arg $ strip_wall_arg $ trace_out_file_arg
               $ chrome_arg $ json_doc_arg))

let strip_env_arg =
  let doc = "Omit environment-classed instruments (wall clock, cache, pool)." in
  Arg.(value & flag & info [ "strip-env" ] ~doc)

let metrics_cmd =
  let render strip_env ~k:_ ~seed:_ ~temperature:_ _ _ collector =
    print_string (Eywa_obs.Metrics.expose ~strip_env (Collector.events collector))
  in
  Cmd.v
    (Cmd.info "metrics"
       ~doc:
         "Synthesize a model (and difftest it) with a collecting \
          instrumentation sink, then print the run's event log as metrics \
          in Prometheus text format. With --strip-env the output is \
          deterministic across machines, pool sizes and cache states.")
    (observed_term render strip_env_arg)

let bugs_cmd =
  let run () =
    List.iter
      (fun (b : Protocol.bug) ->
        Printf.printf "%-5s %-12s %-55s %s\n" b.protocol b.impl b.description
          (if b.new_bug then "new" else "known"))
      Protocol.catalog;
    `Ok ()
  in
  Cmd.v (Cmd.info "bugs" ~doc:"Print the Table 3 bug catalog.")
    Term.(ret (const run $ const ()))

let () =
  let info =
    Cmd.info "eywa" ~version:"1.0.0"
      ~doc:"Model-based protocol testing with a simulated LLM oracle."
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [ models_cmd; prompt_cmd; run_cmd; fuzz_cmd; replay_cmd;
            difftest_cmd; report_cmd; stats_cmd; trace_cmd; metrics_cmd;
            bugs_cmd ]))
