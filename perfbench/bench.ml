(* The Eywa pipeline benchmark. README.md describes the workloads, the
   metrics, and how to run it.

   An untraced run (--trace 0) times whole workload iterations through
   the public top-level entries (Model_def.synthesize, Model_def.fuzz,
   the protocol adapters) and reports the end-to-end metrics. A traced
   run (--trace 1) recomposes the same work from the public stage
   functions with a span around each call and reports the per-layer
   metrics. Everything runs in one process on one domain (jobs = 1)
   and without a synthesis cache, so every second reported was spent
   in this process. *)

module Json = Eywa_core.Serialize.Json
module Pipeline = Eywa_core.Pipeline
module Testcase = Eywa_core.Testcase
module Emodule = Eywa_core.Emodule
module Graph = Eywa_core.Graph
module Harness = Eywa_core.Harness
module Exec = Eywa_symex.Exec
module Term = Eywa_solver.Term
module Pretty = Eywa_minic.Pretty
module Interp = Eywa_minic.Interp
module Fuzz = Eywa_fuzz.Fuzz
module Coverage = Eywa_fuzz.Coverage
module Difftest = Eywa_difftest.Difftest
module Model_def = Eywa_models.Model_def
module Dns_adapter = Eywa_models.Dns_adapter
module Bgp_adapter = Eywa_models.Bgp_adapter
module Smtp_adapter = Eywa_models.Smtp_adapter

(* A failed determinism or accounting gate: the run fails instead of
   reporting a metric. *)
exception Gate of string

let gate fmt = Printf.ksprintf (fun s -> raise (Gate s)) fmt
let now = Unix.gettimeofday

let cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* ----- host speed calibration ----- *)

(* The speed of a shared VM's CPU drifts by tens of percent, within a
   second and over minutes, and the pipeline's iterations drift with it.
   So a fixed kernel is timed before, after and every quarter second
   during the timed work (from a SIGALRM handler), and each time is
   scaled by it: [scaled t = t * reference_s / mean kernel time], with
   the kernel's own time taken out of [t] first. The kernel uses nothing
   from the repository, so a change to the pipeline cannot move it, and
   it does not allocate, so it leaves the pipeline's heap as it was: it
   sorts a small int array and chases pointers through a 512 KiB one.
   [reference_s] is its time on the reference host, a 2-vCPU x86-64 VM,
   so the scaled times read as seconds on that host. *)
let reference_s = 0.012

let kernel_data =
  lazy
    ( Array.init 4096 (fun i -> i * 7919 land 0xffff),
      Array.make 4096 0,
      Array.init (1 lsl 16) (fun i -> ((i * 40503) + 12345) land ((1 lsl 16) - 1)) )

let kernel (template, scratch, chain) =
  let total = ref 0 in
  for _ = 1 to 8 do
    Array.blit template 0 scratch 0 4096;
    Array.sort compare scratch;
    total := !total + scratch.(100)
  done;
  let j = ref 0 in
  for _ = 1 to 400_000 do
    j := chain.(!j)
  done;
  ignore (Sys.opaque_identity (!total + !j))

(* The kernel timings so far: how many, and their wall and cpu seconds. *)
type samples = { mutable n : int; mutable k_wall : float; mutable k_cpu : float }

let samples = { n = 0; k_wall = 0.; k_cpu = 0. }

let sample () =
  let data = Lazy.force kernel_data in
  let t0 = now () and c0 = cpu () in
  kernel data;
  samples.n <- samples.n + 1;
  samples.k_wall <- samples.k_wall +. (now () -. t0);
  samples.k_cpu <- samples.k_cpu +. (cpu () -. c0)

let set_timer interval =
  ignore (Unix.setitimer Unix.ITIMER_REAL { Unix.it_interval = interval; it_value = interval })

(* [calibrated f] runs [f] with the kernel timed as above. It returns
   [f]'s result, its wall and cpu seconds scaled to the reference host,
   and its unscaled wall. *)
let calibrated f =
  samples.n <- 0;
  samples.k_wall <- 0.;
  samples.k_cpu <- 0.;
  sample ();
  let w_in = samples.k_wall and c_in = samples.k_cpu in
  Sys.set_signal Sys.sigalrm (Sys.Signal_handle (fun _ -> sample ()));
  let t0 = now () and c0 = cpu () in
  set_timer 0.25;
  let r =
    Fun.protect f ~finally:(fun () ->
        set_timer 0.;
        Sys.set_signal Sys.sigalrm Sys.Signal_default)
  in
  let wall = now () -. t0 -. (samples.k_wall -. w_in)
  and cpu_s = cpu () -. c0 -. (samples.k_cpu -. c_in) in
  sample ();
  let n = float_of_int samples.n in
  (r, wall *. reference_s *. n /. samples.k_wall, cpu_s *. reference_s *. n /. samples.k_cpu, wall)

(* ----- set-up: oracle and model table, no synthesis ----- *)

type model = {
  def : Model_def.t;
  main_f : Emodule.func;
  order : Emodule.t list;
  config : Pipeline.config;  (** exactly what Model_def.synthesize runs with *)
}

type env = {
  w : Spec.workload;
  k : int;
  timeout : float option;  (** only the tiny size overrides budgets *)
  draw_seed : int;
  oracle : Eywa_core.Oracle.t;
  fuzz_config : Fuzz.config;
  models : model list;
}

let setup (w : Spec.workload) ~seed ~tiny =
  let k, timeout = if tiny then (min w.k 2, Some 0.2) else (w.k, None) in
  let draw_seed = if w.pinned_draws then 42 else seed in
  let model id =
    let def =
      match Eywa_models.All_models.find id with
      | Some m -> m
      | None -> failwith ("unknown model " ^ id)
    in
    let main_f =
      match def.main with
      | Emodule.Func f -> f
      | _ -> failwith (id ^ ": main is not a Func module")
    in
    let order =
      match Graph.synthesis_order def.graph ~main:def.main with
      | Ok o -> o
      | Error e -> failwith (id ^ ": " ^ e)
    in
    { def; main_f; order; config = Model_def.pipeline_config ~k ~seed:draw_seed ?timeout def }
  in
  {
    w;
    k;
    timeout;
    draw_seed;
    oracle = Eywa_llm.Gpt.oracle ();
    fuzz_config = { Fuzz.default_config with fuzz_seed = seed };
    models = List.map model w.models;
  }

(* ----- one workload iteration ----- *)

type model_run = {
  m : model;
  suite : Pipeline.t;
  fz : Fuzz.t;
  smtp_graph : Eywa_stategraph.Stategraph.t option;
  report : Difftest.report;
}

(* Path-condition shape, measured in the traced run only. *)
type pc_shape = {
  mutable conjuncts : int;  (** over every completed path *)
  mutable distinct : int;  (** distinct conjuncts per path, summed *)
}

type run = {
  runs : model_run list;
  bugs : int;  (** distinct (implementation, quirk) pairs *)
  pc : pc_shape;
}

let span ~traced name attrs f = if traced then Spans.with_span name attrs f else f ()
let ok what = function Ok x -> x | Error e -> failwith (what ^ ": " ^ e)

(* One draw, stage by stage, in Pipeline.run_draw's order and under a
   fresh term-id scope as it does. The wall-clock fields of the result
   are left at 0: nothing reads them. *)
let draw_traced env m attrs pc index =
  let attrs = attrs @ [ ("draw", string_of_int index) ] in
  let span name f = Spans.with_span name attrs f in
  span "draw" @@ fun () ->
  Term.with_fresh_ids @@ fun () ->
  let result ?(source = "") ?(c_loc = 0) ?error ?(tests = []) ?stats () =
    { Pipeline.index; c_source = source; c_loc; compile_error = error; tests; stats;
      gen_seconds = 0.; symex_seconds = 0. }
  in
  match
    span "llm.generate" (fun () ->
        Pipeline.generate ~oracle:env.oracle ~config:m.config m.def.graph ~order:m.order
          ~index)
  with
  | Error e -> (result ~error:("oracle: " ^ e) (), None)
  | Ok gen -> (
      let c_loc =
        List.fold_left (fun acc f -> acc + Pretty.loc (Pretty.func f)) 0 gen.funcs
      in
      match span "minic.compile" (fun () -> Pipeline.compile m.def.graph ~main:m.main_f gen) with
      | Error e -> (result ~source:gen.source ~c_loc ~error:("typecheck: " ^ e) (), None)
      | Ok program ->
          let inputs, paths, stats =
            span "symex" (fun () -> Pipeline.symex ~config:m.config m.def.graph ~main:m.main_f program)
          in
          span "bench.pc_shape" (fun () ->
              let seen = Hashtbl.create 64 in
              List.iter
                (fun (p : Exec.path) ->
                  Hashtbl.clear seen;
                  List.iter (fun t -> Hashtbl.replace seen (Term.intern_id t) ()) p.pc;
                  pc.conjuncts <- pc.conjuncts + List.length p.pc;
                  pc.distinct <- pc.distinct + Hashtbl.length seen)
                paths);
          let tests =
            span "concretize" (fun () -> Pipeline.tests_of_paths ~config:m.config ~inputs paths)
          in
          (result ~source:gen.source ~c_loc ~tests ~stats (), Some program))

let synthesize ~traced env m attrs pc =
  if traced then
    let draws = List.init env.k (draw_traced env m attrs pc) in
    Spans.with_span "aggregate" attrs (fun () -> Pipeline.aggregate ~main:m.main_f draws)
  else
    ok m.def.id
      (Model_def.synthesize ~k:env.k ~seed:env.draw_seed ?timeout:env.timeout ~jobs:1
         ~oracle:env.oracle m.def)

let fuzz ~traced env m attrs suite =
  ok m.def.id
    (if traced then
       Spans.with_span "fuzz" attrs (fun () ->
           Fuzz.fuzz_of_seeds ~config:env.fuzz_config ~jobs:1 ~oracle_name:env.oracle.name
             ~pipeline:m.config m.def.graph suite)
     else
       Model_def.fuzz ~fuzz_config:env.fuzz_config ~k:env.k ~seed:env.draw_seed
         ?timeout:env.timeout ~jobs:1 ~oracle:env.oracle m.def suite)

let difftest ~traced m attrs suite tests =
  let span name f = span ~traced name attrs f in
  match m.def.protocol with
  | "DNS" ->
      ( None,
        span "difftest" (fun () ->
            Dns_adapter.run ~jobs:1 ~model_id:m.def.id ~version:Eywa_dns.Impls.Old tests) )
  | "BGP" -> (None, span "difftest" (fun () -> Bgp_adapter.run ~jobs:1 ~model_id:m.def.id tests))
  | "SMTP" ->
      let graph =
        ok m.def.id (span "llm.stategraph" (fun () -> Smtp_adapter.state_graph_for suite))
      in
      (Some graph, span "difftest" (fun () -> Smtp_adapter.run ~jobs:1 ~graph tests))
  | p -> failwith ("unsupported protocol " ^ p)

(* Root-cause attribution, one call per protocol as Table 3 does. *)
let attribute ~traced wattr runs =
  let tests_of proto =
    List.filter_map
      (fun r ->
        if r.m.def.protocol = proto then Some (r.m.def.id, r.fz.combined_tests) else None)
      runs
  in
  let distinct l = List.length (List.sort_uniq compare l) in
  let attrib proto f =
    match tests_of proto with
    | [] -> 0
    | tests -> span ~traced "attrib" [ wattr; ("protocol", proto) ] (fun () -> f tests)
  in
  let dns =
    attrib "DNS" (fun t ->
        distinct (Dns_adapter.quirks_triggered ~jobs:1 ~version:Eywa_dns.Impls.Old t))
  in
  let bgp = attrib "BGP" (fun t -> distinct (Bgp_adapter.quirks_triggered ~jobs:1 t)) in
  let smtp =
    attrib "SMTP" (fun _ ->
        distinct
          (List.concat_map
             (fun r ->
               match r.smtp_graph with
               | Some graph ->
                   Smtp_adapter.quirks_triggered ~jobs:1 ~graph r.fz.combined_tests
               | None -> [])
             runs))
  in
  dns + bgp + smtp

let run_workload ~traced env =
  let wattr = ("workload", env.w.name) in
  let pc = { conjuncts = 0; distinct = 0 } in
  span ~traced "workload" [ wattr ] @@ fun () ->
  let runs =
    List.map
      (fun m ->
        let attrs = [ wattr; ("model", m.def.id) ] in
        span ~traced "model" attrs @@ fun () ->
        let suite = synthesize ~traced env m attrs pc in
        let fz = fuzz ~traced env m attrs suite in
        let smtp_graph, report = difftest ~traced m attrs suite fz.combined_tests in
        { m; suite; fz; smtp_graph; report })
      env.models
  in
  let bugs = attribute ~traced wattr runs in
  { runs; bugs; pc }

(* ----- counts and the determinism fingerprint ----- *)

let sum f l = List.fold_left (fun a x -> a + f x) 0 l

(* Every deterministic count a run produces, by metric name. *)
let counts r =
  let results = List.concat_map (fun mr -> mr.suite.Pipeline.results) r.runs in
  let stats = List.filter_map (fun (x : Pipeline.model_result) -> x.stats) results in
  let draws = List.concat_map (fun mr -> mr.fz.Fuzz.per_draw) r.runs in
  let symex f = sum f stats and fuzz f = sum f draws in
  let difftest f = sum (fun mr -> f mr.report) r.runs in
  [
    ("unique_tests", sum (fun mr -> List.length mr.fz.Fuzz.combined_tests) r.runs);
    ("minic.rejected", sum (fun (x : Pipeline.model_result) -> Bool.to_int (x.compile_error <> None)) results);
    ("symex.ticks", symex (fun s -> s.Exec.ticks_used));
    ("symex.paths", symex (fun s -> s.Exec.paths_completed));
    ("symex.pruned", symex (fun s -> s.Exec.paths_pruned));
    ("symex.timed_out_draws", symex (fun s -> Bool.to_int s.Exec.timed_out));
    ("symex.solver_calls", symex (fun s -> s.Exec.solver_calls));
    ("symex.solver_decisions", symex (fun s -> s.Exec.solver_decisions));
    ("concretize.tests", sum (fun (x : Pipeline.model_result) -> List.length x.tests) results);
    ("aggregate.unique", sum (fun mr -> List.length mr.suite.Pipeline.unique_tests) r.runs);
    ("fuzz.execs", fuzz (fun d -> d.Fuzz.execs));
    ("fuzz.keepers", fuzz (fun d -> List.length d.Fuzz.new_tests));
    ("fuzz.edges_gained", fuzz (fun d -> d.Fuzz.edges_after - d.Fuzz.edges_seed));
    ("edges_covered", fuzz (fun d -> d.Fuzz.edges_after));
    ("difftest.observations", difftest (fun d -> d.Difftest.observations));
    ("difftest.disagreeing", difftest (fun d -> d.Difftest.disagreeing_tests));
    ("bugs_found", r.bugs);
  ]

(* The counts plus a digest of the rendered suite: two runs of the same
   inputs must agree on all of it. *)
let fingerprint r =
  let suite = Buffer.create 4096 in
  List.iter
    (fun mr ->
      Buffer.add_string suite mr.m.def.id;
      List.iter
        (fun t ->
          Buffer.add_char suite '\n';
          Buffer.add_string suite (Testcase.to_string t))
        mr.fz.combined_tests)
    r.runs;
  ("suite_digest", Digest.to_hex (Digest.string (Buffer.contents suite)))
  :: List.map (fun (k, v) -> (k, string_of_int v)) (counts r)

let check_same what a b =
  List.iter2
    (fun (k, x) (_, y) -> if x <> y then gate "%s: %s differs (%s vs %s)" what k x y)
    a b

(* ----- correctness: symex tests replayed concretely ----- *)

(* Two tests agree when they render the same with the error text
   cleared, have the same bad_input flag, and both or neither carry an
   error (symex says "step budget exhausted" where the interpreter says
   "out of fuel"). *)
let agree (a : Testcase.t) (b : Testcase.t) =
  Testcase.to_string { a with error = None } = Testcase.to_string { b with error = None }
  && a.bad_input = b.bad_input
  && Option.is_some a.error = Option.is_some b.error

(* Replay every emitted symex test of every compiled draw through the
   interpreter on that draw's program. Returns (attempted, failed) and
   prints each disagreement. *)
let replay_check r =
  let attempted = ref 0 and failed = ref 0 in
  List.iter
    (fun mr ->
      let natives = Harness.natives_concrete mr.m.def.graph mr.m.main_f in
      let compiled =
        List.filter (fun (x : Pipeline.model_result) -> x.compile_error = None) mr.suite.results
      in
      List.iter2
        (fun (x : Pipeline.model_result) program ->
          List.iter
            (fun (t : Testcase.t) ->
              incr attempted;
              let got =
                Coverage.execute ~fuel:Fuzz.default_config.fuel ~natives ~main:mr.m.main_f
                  ~coverage:(Interp.coverage_create ()) program t.inputs
              in
              if not (agree t got) then begin
                incr failed;
                Printf.printf "disagreement: model %s draw %d\n  symex:    %s\n  concrete: %s\n"
                  mr.m.def.id x.index (Testcase.to_string t) (Testcase.to_string got)
              end)
            x.tests)
        compiled mr.suite.programs)
    r.runs;
  (!attempted, !failed)

(* ----- output ----- *)

let print_result ~correct ~attempted ~failed specs metrics =
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.Int attempted);
            ("failed", Json.Int failed);
            ( "metrics",
              Json.Obj
                (List.map
                   (fun (m : Spec.metric) ->
                     let v =
                       match List.assoc_opt m.m_name metrics with
                       | Some v -> v
                       | None -> failwith ("metric not measured: " ^ m.m_name)
                     in
                     (m.m_name, Json.Obj [ ("value", Json.Float v); ("unit", Json.Str m.m_unit) ]))
                   specs) );
          ]))

let print_metrics title specs metrics =
  Printf.printf "%s\n" title;
  List.iter
    (fun (m : Spec.metric) ->
      Printf.printf "  %-24s %16.6g %s\n" m.m_name (List.assoc m.m_name metrics) m.m_unit)
    specs

(* ----- set-up time ----- *)

(* Set-up is process start plus the oracle and model table: run a fresh
   process that does only that, many times. Each probe counts the CPU
   time it charged (user + sys, from the children's times once it has
   been reaped), so time it spent waiting for a CPU does not count.
   Process start moves with the host's speed as the pipeline does, so
   each probe is paired with a kernel timing just before it, and the
   result is the median of the probe-to-kernel ratios times
   [reference_s]. *)
let setup_seconds argv =
  let exe = Sys.executable_name in
  let child_cpu () =
    let t = Unix.times () in
    t.Unix.tms_cutime +. t.Unix.tms_cstime
  in
  let probe () =
    let k0 = samples.k_cpu in
    sample ();
    let k = samples.k_cpu -. k0 in
    let c0 = child_cpu () in
    let pid =
      Unix.create_process exe
        (Array.append [| exe; "--setup-probe" |] argv)
        Unix.stdin Unix.stdout Unix.stderr
    in
    match Unix.waitpid [] pid with
    | _, Unix.WEXITED 0 -> (child_cpu () -. c0, k)
    | _ -> failwith "set-up probe failed"
  in
  let probes = List.init 61 (fun _ -> probe ()) in
  let setup_s = reference_s *. median (List.map (fun (p, k) -> p /. k) probes) in
  Printf.printf "set-up: %.3f ms scaled, median of 61 probes %.3f ms cpu unscaled\n%!"
    (1e3 *. setup_s) (1e3 *. median (List.map fst probes));
  setup_s

let heap_mb () =
  float_of_int ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8)) /. 1e6

(* ----- the untraced run: end-to-end metrics ----- *)

let measure env ~seconds ~setup_s =
  let iters = ref [] and first = ref None in
  let start = now () in
  let continue () =
    match !iters with
    | [] -> true
    | l -> now () -. start +. (median (List.map (fun (_, _, took) -> took) l) /. 2.) < seconds
  in
  while continue () do
    Gc.full_major ();
    let t_iter = now () in
    let r, wall, cpu_s, raw = calibrated (fun () -> run_workload ~traced:false env) in
    iters := (wall, cpu_s, now () -. t_iter) :: !iters;
    Printf.printf "  iteration %d: wall %.3f s, cpu %.3f s (unscaled wall %.3f s)\n%!"
      (List.length !iters) wall cpu_s raw;
    (* the heap peak is read right after the first iteration, before
       any check allocates; that iteration is then checked and only its
       fingerprint and counts are kept *)
    match !first with
    | None ->
        let peak = heap_mb () in
        first := Some (fingerprint r, counts r, replay_check r, peak)
    | Some (fp, _, _, _) -> check_same "determinism gate (iteration 1 vs later)" fp (fingerprint r)
  done;
  let _, counts, (attempted, failed), peak = Option.get !first in
  let count name = float_of_int (List.assoc name counts) in
  let wall = median (List.map (fun (w, _, _) -> w) !iters)
  and cpu_s = median (List.map (fun (_, c, _) -> c) !iters) in
  Printf.printf "%s: %d iteration(s), determinism gate ok, %d/%d symex tests replay-agree\n"
    env.w.name (List.length !iters) (attempted - failed) attempted;
  let metrics =
    [
      ("setup_s", setup_s);
      ("wall_s", wall);
      ("cpu_s", cpu_s);
      ("us_per_test", wall *. 1e6 /. count "unique_tests");
      ("unique_tests", count "unique_tests");
      ("edges_covered", count "edges_covered");
      ("bugs_found", count "bugs_found");
      ("pass_rate", float_of_int (attempted - failed) /. float_of_int attempted);
      ("peak_heap_mb", peak);
    ]
  in
  print_metrics (env.w.name ^ " end-to-end (untraced)") Spec.end_to_end metrics;
  (attempted, failed, metrics)

(* ----- the traced run: per-layer metrics ----- *)

(* Spans that only group stage calls; their self time is the
   benchmark's glue, everything else is a layer. *)
let is_glue name = List.mem name [ "workload"; "model"; "draw" ]

(* The counts printed beside each layer in the layer table. *)
let layer_counts =
  [
    ("minic.compile", [ "minic.rejected" ]);
    ("symex", [ "symex.ticks"; "symex.paths"; "symex.timed_out_draws" ]);
    ("concretize", [ "concretize.tests" ]);
    ("aggregate", [ "aggregate.unique" ]);
    ("fuzz", [ "fuzz.execs"; "fuzz.keepers"; "fuzz.edges_gained" ]);
    ("difftest", [ "difftest.observations"; "difftest.disagreeing" ]);
    ("attrib", [ "bugs_found" ]);
  ]

let traced env ~trace_out =
  Gc.full_major ();
  let t0 = now () in
  let plain = run_workload ~traced:false env in
  let untraced_wall = now () -. t0 in
  Gc.full_major ();
  Spans.reset ();
  let t0 = now () in
  let r = run_workload ~traced:true env in
  let traced_wall = now () -. t0 in
  let spans = Spans.all () in
  check_same "traced vs untraced" (fingerprint plain) (fingerprint r);
  let t0 = now () in
  let attempted, failed = replay_check plain in
  let check_s = now () -. t0 in
  let rows = Spans.by_name spans in
  let self name = List.fold_left (fun a (n, t, _) -> if n = name then a +. t else a) 0. rows in
  let glue = List.fold_left (fun a (n, t, _) -> if is_glue n then a +. t else a) 0. rows in
  let covered = traced_wall -. glue in
  (* the stage calls must account for the traced wall; what is left is
     the benchmark's own glue between them *)
  if covered < 0.95 *. traced_wall then
    gate "layers cover only %.1f%% of the traced wall" (100. *. covered /. traced_wall);
  let counts = counts r in
  let count name = float_of_int (List.assoc name counts) in
  let symex_spans = List.filter (fun (s : Spans.span) -> s.name = "symex") spans in
  let metrics =
    [
      ("llm.s", self "llm.generate" +. self "llm.stategraph");
      ("minic.compile_s", self "minic.compile");
      ("minic.rejected", count "minic.rejected");
      ("symex.s", self "symex");
      ("symex.max_draw_s", List.fold_left (fun a s -> Float.max a (Spans.duration s)) 0. symex_spans);
      ("symex.us_per_tick", self "symex" *. 1e6 /. count "symex.ticks");
      ("symex.ticks", count "symex.ticks");
      ("symex.paths", count "symex.paths");
      ("symex.pruned", count "symex.pruned");
      ("symex.timed_out_draws", count "symex.timed_out_draws");
      ("symex.solver_calls", count "symex.solver_calls");
      ("symex.solver_decisions", count "symex.solver_decisions");
      ("symex.pc_dup_ratio", 1. -. (float_of_int r.pc.distinct /. float_of_int (max 1 r.pc.conjuncts)));
      ("concretize.s", self "concretize");
      ("concretize.tests", count "concretize.tests");
      ("aggregate.s", self "aggregate");
      ("aggregate.dup_ratio", 1. -. (count "aggregate.unique" /. count "concretize.tests"));
      ("fuzz.s", self "fuzz");
      ("fuzz.execs", count "fuzz.execs");
      ("fuzz.keepers", count "fuzz.keepers");
      ("fuzz.keep_ratio", count "fuzz.keepers" /. count "fuzz.execs");
      ("fuzz.edges_gained", count "fuzz.edges_gained");
      ("difftest.s", self "difftest");
      ("difftest.observations", count "difftest.observations");
      ("difftest.disagreeing", count "difftest.disagreeing");
      ("difftest.us_per_obs", self "difftest" *. 1e6 /. count "difftest.observations");
      ("attrib.s", self "attrib");
      ("attrib.bugs", count "bugs_found");
      ("check.s", check_s);
      ("trace.overhead_s", traced_wall -. untraced_wall);
    ]
  in
  Printf.printf "%s layer table (traced wall %.3f s, untraced %.3f s)\n" env.w.name traced_wall
    untraced_wall;
  Printf.printf "  %-16s %10s %7s %6s  %s\n" "layer" "self_s" "share" "spans" "counts";
  List.iter
    (fun (n, t, c) ->
      let shown =
        List.map (fun k -> Printf.sprintf "%s=%d" k (List.assoc k counts))
          (Option.value ~default:[] (List.assoc_opt n layer_counts))
      in
      Printf.printf "  %-16s %10.4f %6.2f%% %6d  %s\n" n t (100. *. t /. traced_wall) c
        (String.concat " " shown))
    rows;
  Printf.printf "  layers cover %.2f%% of the traced wall\n" (100. *. covered /. traced_wall);
  print_metrics (env.w.name ^ " per-layer (traced)") Spec.per_layer metrics;
  Spans.write_jsonl trace_out spans;
  Printf.printf "wrote %d spans to %s\n" (List.length spans) trace_out;
  (attempted, failed, metrics)

(* ----- smoke test ----- *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Run every workload at the tiny size, traced and untraced, in child
   processes, and check each result line names every metric with its
   unit; check that BENCHMARK.json is what Spec declares. *)
let smoke () =
  (match Json.of_string (read_file "BENCHMARK.json") with
  | Ok j when j = Spec.to_json () -> ()
  | Ok _ -> failwith "BENCHMARK.json differs from perfbench/spec.ml; regenerate it with --emit-spec"
  | Error e -> failwith ("BENCHMARK.json: " ^ e));
  let exe = Sys.executable_name in
  List.iter
    (fun (w : Spec.workload) ->
      List.iter
        (fun (trace, specs) ->
          let ic =
            Unix.open_process_args_in exe
              [| exe; "--tiny"; "--workload"; w.name; "--seed"; "7"; "--seconds"; "1"; "--trace"; trace |]
          in
          let lines = String.split_on_char '\n' (String.trim (In_channel.input_all ic)) in
          if Unix.close_process_in ic <> Unix.WEXITED 0 then
            failwith (Printf.sprintf "smoke: %s --trace %s failed" w.name trace);
          let fail what = failwith (Printf.sprintf "smoke: %s --trace %s: %s" w.name trace what) in
          match Json.of_string (List.nth lines (List.length lines - 1)) with
          | Ok (Json.Obj [ ("correct", Json.Bool true); ("attempted", Json.Int a); ("failed", Json.Int 0);
                           ("metrics", Json.Obj ms) ]) when a > 0 ->
              if List.map fst ms <> List.map (fun (m : Spec.metric) -> m.m_name) specs then
                fail "metric names differ from the spec";
              List.iter2
                (fun (m : Spec.metric) (_, v) ->
                  match v with
                  | Json.Obj [ ("value", (Json.Float _ | Json.Int _)); ("unit", Json.Str u) ]
                    when u = m.m_unit -> ()
                  | _ -> fail ("bad value or unit for " ^ m.m_name))
                specs ms;
              Printf.printf "smoke: %s --trace %s ok (%d metrics)\n%!" w.name trace (List.length ms)
          | _ -> fail "last line is not a passing result")
        [ ("0", Spec.end_to_end); ("1", Spec.per_layer) ])
    Spec.workloads;
  print_endline "smoke: ok"

(* ----- command line ----- *)

let () =
  let workload = ref "" and seed = ref 42 and seconds = ref (float Spec.run_seconds) in
  let trace = ref 0 in
  let mode = ref `Run and tiny = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME  one of the workloads, or all");
      ("--seed", Arg.Set_int seed, "N  input seed (default 42)");
      ("--seconds", Arg.Float (fun s -> seconds := s), "S  how long to measure");
      ("--trace", Arg.Set_int trace, "0|1  end-to-end metrics, or the traced per-layer run");
      ("--smoke", Arg.Unit (fun () -> mode := `Smoke), " tiny-size self-test of every workload");
      ("--emit-spec", Arg.Unit (fun () -> mode := `Spec), " print BENCHMARK.json");
      ("--tiny", Arg.Set tiny, " one or two draws on small budgets (smoke size)");
      ("--setup-probe", Arg.Unit (fun () -> mode := `Probe), " set up and exit (times set-up)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]";
  let forwarded =
    [| "--workload"; !workload; "--seed"; string_of_int !seed |]
    |> Array.append (if !tiny then [| "--tiny" |] else [||])
  in
  match (!mode, !workload) with
  | `Spec, _ -> print_string (Json.to_string_pretty (Spec.to_json ()))
  | `Smoke, _ -> smoke ()
  | `Run, "all" ->
      (* one process per workload, so each measures its own set-up and
         peak heap *)
      let exe = Sys.executable_name in
      List.iter
        (fun (w : Spec.workload) ->
          let args =
            [| exe; "--workload"; w.name; "--seed"; string_of_int !seed; "--seconds";
               string_of_float !seconds; "--trace"; string_of_int !trace |]
          in
          let pid = Unix.create_process exe args Unix.stdin Unix.stdout Unix.stderr in
          match Unix.waitpid [] pid with _, Unix.WEXITED 0 -> () | _ -> exit 1)
        Spec.workloads
  | (`Run | `Probe), name -> (
      let w =
        match Spec.find_workload name with
        | Some w -> w
        | None ->
            prerr_endline ("unknown workload " ^ name);
            exit 2
      in
      let env = setup w ~seed:!seed ~tiny:!tiny in
      if !mode = `Probe then exit 0;
      Printf.printf "workload %s, seed %d (draws at base seed %d), k=%d, models %s\n%!" w.name !seed
        env.draw_seed env.k (String.concat "," w.models);
      try
        let specs, (attempted, failed, metrics) =
          if !trace = 0 then
            (Spec.end_to_end, measure env ~seconds:!seconds ~setup_s:(setup_seconds forwarded))
          else
            let out = Printf.sprintf ".perfbench/trace-%s-seed%d.jsonl" w.name !seed in
            if not (Sys.file_exists ".perfbench") then Sys.mkdir ".perfbench" 0o755;
            (Spec.per_layer, traced env ~trace_out:out)
        in
        (* a symex test whose concrete replay disagrees fails the run
           as a gate does; the disagreements are printed above *)
        print_result ~correct:(failed = 0) ~attempted ~failed specs metrics;
        if failed > 0 then exit 1
      with Gate msg ->
        Printf.printf "FAILED: %s\n" msg;
        print_result ~correct:false ~attempted:1 ~failed:1 [] [];
        exit 1)
