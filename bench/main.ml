(* The benchmark harness: regenerates every table and figure of the
   paper's evaluation (§4).

     table1  — Table 1: implementations tested per protocol
     table2  — Table 2: models, LoC, unique test counts
     table3  — Table 3: bugs found per implementation (+ new-bug flags)
     fig10   — Fig. 10: unique tests vs k for several temperatures
     timing  — §4.3 result 1: generation and symbolic-execution times
     ablate  — the design choices of §2, knocked out in turn on DNAME
     fuzz    — symex-only vs symex+fuzz edge coverage and difftest
               disagreements (writes BENCH_PR3.json)
     micro   — Bechamel micro-benchmarks of the core engines

   Run with no stage (or [all]) to execute everything in order. Pass
   [fast] for a quick smoke-scale run; [--jobs N] sizes the domain
   pools, [--cache-dir DIR] persists the synthesis cache on disk,
   [--summary-json PATH] writes per-stage instrumentation totals
   (ticks, cache hits/misses) after the run, and [--fuzz-json PATH]
   redirects the fuzz stage's JSON. An unknown stage or flag exits 2
   with the list of stages. The determinism of the pooled stages and
   of the observability layer across --jobs and cache state is pinned
   by the test suite (test_parallel, test_obs), not here.

   Counts reproduce the paper's *shape* (relative sizes, who hits the
   timeout, diminishing returns around k = 10), not its absolute
   numbers: the substrate here is the built-in symbolic executor and
   bug-seeded reference implementations, not Klee and ten production
   servers. *)

module Model_def = Eywa_models.Model_def
module All = Eywa_models.All_models
module Dns_adapter = Eywa_models.Dns_adapter
module Protocol = Eywa_models.Protocol
module Pipeline = Eywa_core.Pipeline
module Cache = Eywa_core.Cache
module Instrument = Eywa_core.Instrument
module Testcase = Eywa_core.Testcase
module Difftest = Eywa_difftest.Difftest
module Json = Eywa_core.Serialize.Json

let oracle = Eywa_llm.Gpt.oracle ()

type scale = {
  k : int;
  timeout_scale : float;
  fig10_max_k : int;
  fig10_seeds : int;
  fuzz_budget : int;
}

let full_scale =
  { k = 10; timeout_scale = 0.5; fig10_max_k = 12; fig10_seeds = 2; fuzz_budget = 1000 }

let fast_scale =
  { k = 3; timeout_scale = 0.1; fig10_max_k = 6; fig10_seeds = 1; fuzz_budget = 250 }

(* --jobs N / --cache-dir DIR / --summary-json PATH / --fuzz-json PATH,
   set by the driver before any stage runs *)
let jobs : int option ref = ref None
let cache_dir : string option ref = ref None
let summary_json : string option ref = ref None
let fuzz_json : string ref = ref "BENCH_PR3.json"

(* ----- shared synthesis cache + instrumentation ----- *)

(* One content-addressed cache for the whole run: table2, table3,
   fig10 and timing all re-synthesize the same models, and every draw
   after the first is a hit. With --cache-dir it also survives across
   bench invocations. *)
let the_cache : Cache.t option ref = ref None

let cache () =
  match !the_cache with
  | Some c -> c
  | None ->
      let c = Cache.create ?dir:!cache_dir () in
      the_cache := Some c;
      c

let collector = Instrument.Collector.create ()
let sink = Instrument.Collector.sink collector

let synthesize scale (m : Model_def.t) =
  match
    Model_def.synthesize ~cache:(cache ()) ~sink ~k:scale.k
      ~timeout:(Float.max 1.0 (m.timeout *. scale.timeout_scale))
      ?jobs:!jobs ~oracle m
  with
  | Ok s -> s
  | Error e -> failwith (m.id ^ ": " ^ e)

let line = String.make 78 '-'

let write_json ~what path doc =
  try
    let oc = open_out path in
    output_string oc (Json.to_string_pretty doc);
    close_out oc;
    Printf.printf "wrote %s\n" path
  with Sys_error m -> Printf.eprintf "error: cannot write %s JSON: %s\n" what m

(* ----- Table 1 ----- *)

let table1 () =
  Printf.printf "\n%s\nTable 1: Protocol implementations tested by Eywa\n%s\n" line line;
  Printf.printf "%-10s %s\n" "Protocol" "Tested Implementations";
  Printf.printf "%-10s %s\n" "DNS"
    (String.concat ", "
       (List.map (fun (i : Eywa_dns.Impls.t) -> i.name) Eywa_dns.Impls.all));
  Printf.printf "%-10s %s (+ exabgp as the R1 injector)\n" "BGP"
    (String.concat ", "
       (List.map (fun (i : Eywa_bgp.Impls.t) -> i.name) Eywa_bgp.Impls.all));
  Printf.printf "%-10s %s\n" "SMTP"
    (String.concat ", "
       (List.map (fun (i : Eywa_smtp.Impls.t) -> i.name) Eywa_smtp.Impls.all))

(* ----- Table 2 ----- *)

(* the paper's numbers, for side-by-side shape comparison *)
let paper_table2 =
  [
    ("CNAME", (21, "222/246", 435)); ("DNAME", (23, "209/230", 269));
    ("WILDCARD", (23, "210/238", 470)); ("IPV4", (21, "209/229", 515));
    ("FULLLOOKUP", (26, "487/510", 12281)); ("RCODE", (26, "487/510", 26617));
    ("AUTH", (26, "477/504", 31411)); ("LOOP", (26, "474/489", 31453));
    ("CONFED", (22, "189/202", 957)); ("RR", (16, "59/76", 36));
    ("RMAP-PL", (48, "150/162", 400)); ("RR-RMAP", (48, "341/366", 7147));
    ("SERVER", (26, "245/252", 80));
  ]

let table2 scale =
  Printf.printf "\n%s\nTable 2: models, lines of code, and unique tests (k=%d)\n%s\n"
    line scale.k line;
  Printf.printf "%-9s %-11s %9s %10s %8s | %8s %10s %8s\n" "Protocol" "Model"
    "LOC(spec)" "LOC(C)" "Tests" "paper:" "LOC(C)" "Tests";
  List.iter
    (fun (m : Model_def.t) ->
      let s = synthesize scale m in
      let p_spec, p_loc, p_tests =
        match List.assoc_opt m.id paper_table2 with
        | Some (a, b, c) -> (a, b, c)
        | None -> (0, "-", 0)
      in
      Printf.printf "%-9s %-11s %6d(%2d) %10s %8d | %17s %8d\n" m.protocol m.id
        m.spec_loc p_spec
        (Printf.sprintf "%d/%d" s.loc_min s.loc_max)
        (List.length s.unique_tests) p_loc p_tests)
    All.all

(* ----- Table 3 ----- *)

let mark found = if found then "yes" else "MISSED"

let table3 scale =
  Printf.printf "\n%s\nTable 3: bugs found by differential testing\n%s\n" line line;
  (* one attribution call per protocol over all its models; DNS runs
     against the Old versions (as the paper does, to compare against
     SCALE's bug set) *)
  let found models =
    match
      Protocol.root_causes ?jobs:!jobs ~version:Eywa_dns.Impls.Old
        (List.map (fun m -> (m, synthesize scale m)) models)
    with
    | Ok found -> found
    | Error _ -> []
  in
  let dns_found = found All.dns in
  let bgp_found = found All.bgp in
  let smtp_found = found All.smtp in
  Printf.printf "%-6s %-12s %-55s %-18s %-5s %s\n" "Proto" "Impl" "Description"
    "Bug type" "New?" "Found";
  (* implementation names are unique across protocols *)
  let all_found = dns_found @ bgp_found @ smtp_found in
  List.iter
    (fun (b : Protocol.bug) ->
      Printf.printf "%-6s %-12s %-55s %-18s %-5s %s\n" b.protocol b.impl
        b.description b.bug_type
        (if b.new_bug then "new" else "known")
        (mark (List.mem (b.impl, b.quirk) all_found)))
    Protocol.catalog;
  (* summary in the paper's accounting: unique root causes *)
  let unique found = List.length (List.sort_uniq compare (List.map snd found)) in
  let new_dns =
    List.filter
      (fun (impl, q) ->
        List.exists
          (fun (b : Protocol.bug) -> b.impl = impl && b.quirk = q && b.new_bug)
          Protocol.catalog)
      dns_found
  in
  Printf.printf "%s\n" line;
  Printf.printf
    "Summary: DNS %d impl-bugs (%d unique root causes), BGP %d impl-bugs (%d \
     unique), SMTP %d; new impl-bugs (DNS) %d\n"
    (List.length dns_found) (unique dns_found) (List.length bgp_found)
    (unique bgp_found) (List.length smtp_found) (List.length new_dns);
  Printf.printf
    "(paper: 38 DNS bugs / 26 unique / 11 new; 7 BGP rows / 5 unique / 3 new; 1 \
     SMTP)\n"

(* ----- Fig. 10 ----- *)

(* The k-sweep reuses one synthesis per (tau, seed) at the maximum k:
   the union over the first j models is exactly a k=j run. *)
let fig10 scale =
  Printf.printf "\n%s\nFigure 10: unique tests vs k, per temperature\n%s\n" line line;
  let taus = [ 0.2; 0.4; 0.6; 0.8; 1.0 ] in
  let models = [ Eywa_models.Dns_models.cname; Eywa_models.Dns_models.dname ] in
  List.iter
    (fun (m : Model_def.t) ->
      Printf.printf "\n[%s]\n%-6s" m.id "k";
      for k = 1 to scale.fig10_max_k do
        Printf.printf "%7d" k
      done;
      print_newline ();
      List.iter
        (fun tau ->
          let per_seed =
            List.init scale.fig10_seeds (fun seed ->
                match
                  Model_def.synthesize ~cache:(cache ()) ~sink
                    ~k:scale.fig10_max_k ~temperature:tau
                    ~seed:(100 * (seed + 1)) ~timeout:2.0 ?jobs:!jobs ~oracle m
                with
                | Ok s ->
                    let per_model =
                      List.map (fun (r : Pipeline.model_result) -> r.tests) s.results
                    in
                    List.init scale.fig10_max_k (fun j ->
                        let upto = List.filteri (fun i _ -> i <= j) per_model in
                        List.length (Testcase.dedup (List.concat upto)))
                | Error e -> failwith e)
          in
          let avg j =
            let total =
              List.fold_left (fun acc series -> acc + List.nth series j) 0 per_seed
            in
            float_of_int total /. float_of_int scale.fig10_seeds
          in
          Printf.printf "t=%.1f " tau;
          for j = 0 to scale.fig10_max_k - 1 do
            Printf.printf "%7.1f" (avg j)
          done;
          print_newline ())
        taus)
    models;
  Printf.printf
    "\n(expected shape: counts grow with k with diminishing returns around k=10;\n\
    \ tau=0.2..1.0 series close to each other — cf. the paper's choice of k=10,\n\
    \ tau=0.6)\n"

(* ----- timing (§4.3 result 1) ----- *)

(* Wall seconds are machine-dependent; the tick column is the symex
   budget counter (Exec.stats.ticks_used) — deterministic in the
   inputs, so comparable across hosts and identical on cache hits. *)
let timing scale =
  Printf.printf "\n%s\nRunning time (paper §4.3 result 1)\n%s\n" line line;
  Printf.printf "%-11s %14s %14s %12s %10s %10s\n" "Model" "gen total (s)"
    "symex total(s)" "symex ticks" "paths" "timed out";
  List.iter
    (fun (m : Model_def.t) ->
      let s = synthesize scale m in
      let gen =
        List.fold_left (fun acc (r : Pipeline.model_result) -> acc +. r.gen_seconds)
          0.0 s.results
      in
      let sym =
        List.fold_left
          (fun acc (r : Pipeline.model_result) -> acc +. r.symex_seconds)
          0.0 s.results
      in
      let paths, ticks, timed_out =
        List.fold_left
          (fun (p, k, t) (r : Pipeline.model_result) ->
            match r.stats with
            | Some st -> (p + st.Eywa_symex.Exec.paths_completed,
                          k + st.Eywa_symex.Exec.ticks_used,
                          t || st.Eywa_symex.Exec.timed_out)
            | None -> (p, k, t))
          (0, 0, false) s.results
      in
      Printf.printf "%-11s %14.2f %14.2f %12d %10d %10b\n" m.id gen sym ticks
        paths timed_out)
    All.all;
  let c = cache () in
  Printf.printf "synthesis cache: %d hits, %d misses this run\n" (Cache.hits c)
    (Cache.misses c);
  print_endline
    (Format.asprintf "%a" Instrument.Collector.pp_summary
       (Instrument.Collector.summary collector));
  Printf.printf
    "(paper: each LLM query < 20 s; Klee 5-10 s on small models, 5-minute \
     timeout on FULLLOOKUP/RCODE/AUTH/LOOP; BGP models always terminate)\n"

(* ----- micro-benchmarks ----- *)

let micro () =
  let open Bechamel in
  Printf.printf "\n%s\nMicro-benchmarks (Bechamel, monotonic clock)\n%s\n" line line;
  (* pre-build inputs outside the timed sections *)
  let solver_problem =
    let module T = Eywa_solver.Term in
    let vars = List.init 6 (fun i ->
        T.fresh_var ~name:(Printf.sprintf "m%d" i) (T.Sint 3)
          (Array.init 8 (fun v -> v))) in
    let sum =
      List.fold_left (fun acc v -> T.add acc (T.var v)) (T.const 0) vars
    in
    [ T.eq sum (T.const 17);
      T.lt (T.var (List.hd vars)) (T.var (List.nth vars 1)) ]
  in
  let regex = Eywa_symex.Regex.parse {|[a*](\.[a*])*|} in
  let cells =
    match Eywa_symex.Sv.symbolic_string
            ~alphabet:[| 0; Char.code 'a'; Char.code '.'; Char.code '*' |] 5
    with
    | Eywa_symex.Sv.Sstring c -> c
    | _ -> assert false
  in
  let dname_program =
    let src = List.assoc "dname_applies" Eywa_llm.Kb_dns.entries in
    let full =
      "typedef enum { A, AAAA, NS, TXT, CNAME, DNAME, SOA } RecordType;\n\
       typedef struct { RecordType rtyp; char* name; char* rdat; } Record;\n"
      ^ src
    in
    match Eywa_minic.Parser.parse_result full with
    | Ok p -> p
    | Error m -> failwith m
  in
  let sym_args () =
    let alphabet = [| 0; Char.code 'a'; Char.code '.' |] in
    let q = Eywa_symex.Sv.symbolic_string ~name:"q" ~alphabet 3 in
    let r =
      Eywa_symex.Sv.Sstruct
        ( "Record",
          [
            ("rtyp",
             Eywa_symex.Sv.fresh_scalar ~name:"rtyp" (Eywa_minic.Ast.Tenum "RecordType")
               ~domain:(Array.init 7 (fun i -> i)));
            ("name", Eywa_symex.Sv.symbolic_string ~name:"rname" ~alphabet 2);
            ("rdat", Eywa_symex.Sv.concrete_string "a");
          ] )
    in
    [ q; r ]
  in
  let dns_zone =
    Eywa_dns.Zonefile.build_zone ~extra_delegation:true
      [
        { Eywa_dns.Zonefile.rname = "*"; rtype = Eywa_dns.Rr.DNAME; rdata = "a.a" };
        { Eywa_dns.Zonefile.rname = "a.a"; rtype = Eywa_dns.Rr.A; rdata = "10.0.0.1" };
      ]
  in
  let dns_query =
    Eywa_dns.Zonefile.build_query "b.*" Eywa_dns.Rr.A
  in
  let pfx = match Eywa_bgp.Prefix.of_string "10.0.0.0/8" with
    | Ok p -> p | Error m -> failwith m in
  let pl =
    { Eywa_bgp.Policy.pl_name = "pl";
      entries =
        [ { Eywa_bgp.Policy.seq = 10; permit = true; prefix = pfx;
            ge = Some 16; le = Some 24 } ] }
  in
  let rm =
    { Eywa_bgp.Policy.rm_name = "rm";
      stanzas =
        [ { Eywa_bgp.Policy.stanza_seq = 10; stanza_permit = true;
            matches = [ Eywa_bgp.Policy.Match_prefix_list "pl" ];
            sets = [ Eywa_bgp.Policy.Set_local_pref 200 ] } ] }
  in
  let route = Eywa_bgp.Route.v (match Eywa_bgp.Prefix.of_string "10.1.0.0/20" with
    | Ok p -> p | Error m -> failwith m) in
  let smtp_session =
    List.map Eywa_smtp.Machine.command_of_letter
      [ "H"; "M"; "R"; "R"; "D"; "x"; "."; "Q" ]
  in
  (* one synthesized DNAME draw: its harness, regex natives and the
     seed input that covers the most edges *)
  let dname_run =
    let m = Option.get (All.find "DNAME") in
    match Model_def.synthesize ~k:1 ~jobs:1 ~oracle m with
    | Error e -> failwith e
    | Ok s ->
        let program = List.hd s.Pipeline.programs in
        let natives = Eywa_core.Harness.natives_concrete m.Model_def.graph s.main in
        (* set up once, as the fuzz loop does per draw *)
        let run = Eywa_fuzz.Coverage.runner ~natives ~main:s.main program in
        let edges (t : Testcase.t) =
          let cov = Eywa_minic.Interp.coverage_create () in
          ignore (run ~coverage:cov t.Testcase.inputs);
          Eywa_fuzz.Coverage.count cov
        in
        let best =
          List.fold_left
            (fun (b : Testcase.t) t -> if edges t > edges b then t else b)
            (List.hd s.unique_tests) s.unique_tests
        in
        fun () ->
          run ~coverage:(Eywa_minic.Interp.coverage_create ()) best.Testcase.inputs
  in
  let tests =
    [
      Test.make ~name:"solver: 6-var sum constraint"
        (Staged.stage (fun () -> Eywa_solver.Solve.solve solver_problem));
      Test.make ~name:"regex: compile domain pattern to a term"
        (Staged.stage (fun () -> Eywa_symex.Regex.compile_term regex cells));
      Test.make ~name:"symex: explore the DNAME model"
        (Staged.stage (fun () ->
             (* a fresh intern scope, so no iteration replays refutations
                an earlier one stored *)
             Eywa_solver.Term.with_fresh_ids (fun () ->
                 Eywa_symex.Exec.run dname_program ~entry:"dname_applies"
                   ~args:(sym_args ()) ~assumes:[])));
      Test.make ~name:"dns: authoritative lookup (DNAME+wildcard zone)"
        (Staged.stage (fun () -> Eywa_dns.Lookup.lookup dns_zone dns_query));
      Test.make ~name:"bgp: route-map evaluation"
        (Staged.stage (fun () ->
             Eywa_bgp.Policy.apply_route_map ~prefix_lists:[ pl ] rm route));
      Test.make ~name:"smtp: 8-command session"
        (Staged.stage (fun () -> Eywa_smtp.Machine.run_session smtp_session));
      Test.make ~name:"minic: run the DNAME harness with coverage"
        (Staged.stage dname_run);
    ]
  in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) () in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  List.iter
    (fun test ->
      List.iter
        (fun elt ->
          let raw = Benchmark.run cfg [ Toolkit.Instance.monotonic_clock ] elt in
          let result = Analyze.one ols Toolkit.Instance.monotonic_clock raw in
          let ns =
            match Analyze.OLS.estimates result with
            | Some (e :: _) -> e
            | _ -> nan
          in
          Printf.printf "%-48s %12.0f ns/run\n" (Test.Elt.name elt) ns)
        (Test.elements test))
    tests

(* ----- ablations ----- *)

(* Design choices the paper (and DESIGN.md) motivate, each knocked out
   in turn on the DNAME model:

   1. k model drafts vs a single one (§2.2: model errors are
      compensated by other drafts).
   2. Differential majority voting vs trusting the LLM model's own
      output as the oracle (§2.2: "we do not rely on the LLM-generated
      model's result").
   3. The validity pipe (§2.1: the RegexModule guard) — how many
      generated inputs would be invalid without it.
   4. Dense per-path sampling (our Klee-coverage substitute). *)
let ablate scale =
  Printf.printf "\n%s\nAblations (DNAME model)\n%s\n" line line;
  let synth ~k ~samples =
    let m = Eywa_models.Dns_models.dname in
    let config =
      {
        Pipeline.default_config with
        k;
        timeout = 3.0;
        alphabet = m.Model_def.alphabet;
        samples_per_path = samples;
      }
    in
    match
      Pipeline.run ~cache:(cache ()) ~sink ~config ?jobs:!jobs ~oracle
        m.Model_def.graph ~main:m.Model_def.main
    with
    | Ok s -> s
    | Error e -> failwith e
  in
  let bug_count (s : Pipeline.t) =
    List.length
      (Dns_adapter.quirks_triggered ?jobs:!jobs ~version:Eywa_dns.Impls.Old
         [ ("DNAME", s.unique_tests) ])
  in
  ignore scale;
  (* 1 + 4: k and sampling *)
  let base = synth ~k:10 ~samples:4 in
  let k1 = synth ~k:1 ~samples:4 in
  let s1 = synth ~k:10 ~samples:1 in
  Printf.printf "k=10 samples=4 : %4d tests, %2d (impl, bug) pairs found\n"
    (List.length base.unique_tests) (bug_count base);
  Printf.printf "k=1  samples=4 : %4d tests, %2d (impl, bug) pairs found\n"
    (List.length k1.unique_tests) (bug_count k1);
  Printf.printf "k=10 samples=1 : %4d tests, %2d (impl, bug) pairs found\n"
    (List.length s1.unique_tests) (bug_count s1);
  (* 3: the validity pipe *)
  let invalid =
    List.length (List.filter (fun (t : Testcase.t) -> t.bad_input) base.unique_tests)
  in
  Printf.printf
    "validity pipe  : %d of %d generated inputs violate the domain-name regex\n\
    \                 (flagged bad_input and excluded from replay)\n"
    invalid
    (List.length base.unique_tests);
  (* 2: trusting the model instead of the majority. Interpret the
     model's boolean as "the answer section must be non-empty" and
     count how often that verdict wrongly flags the quirk-free
     reference engine. *)
  let false_positives = ref 0 and applicable = ref 0 in
  List.iter
    (fun (t : Testcase.t) ->
      match (Dns_adapter.artifacts_for ~model_id:"DNAME" t, t.result) with
      | Some (zone, query), Some expected -> (
          match Eywa_dns.Lookup.lookup zone query with
          | Eywa_dns.Message.Reply r ->
              incr applicable;
              let got = r.Eywa_dns.Message.answer <> [] in
              let model_says =
                match expected with
                | Eywa_minic.Value.Vbool b -> b
                | v -> ( try Eywa_minic.Value.to_int v <> 0 with _ -> false)
              in
              if got <> model_says then incr false_positives
          | Eywa_dns.Message.Crash _ -> ())
      | _ -> ())
    base.unique_tests;
  Printf.printf
    "model-as-oracle: flags the CORRECT reference engine on %d of %d tests\n\
    \                 (differential voting avoids all of these false alarms)\n"
    !false_positives !applicable


(* ----- fuzz stage ----- *)

(* Symex-only vs symex+fuzz: for each DNS model, fuzz the compiled
   draws seeded from their own symex tests, then compare the edge
   coverage of the two suites and the difftest disagreement counts on
   the bug-seeded implementation set. *)
let fuzz_stage scale =
  Printf.printf
    "\n%s\nFuzz: symex-only vs symex+fuzz (budget %d execs/draw)\n%s\n" line
    scale.fuzz_budget line;
  Printf.printf "%-11s %7s %7s  %-13s %-13s %9s %9s\n" "Model" "symex" "fuzz"
    "edges(symex)" "edges(+fuzz)" "dis(symex)" "dis(+fuzz)";
  let open Eywa_models.Dns_models in
  let models = [ cname; dname; rcode; loop ] in
  let fuzz_config =
    { Eywa_fuzz.Fuzz.default_config with budget = scale.fuzz_budget }
  in
  (* one (strict increase, JSON row) per model *)
  let rows =
    List.map
      (fun (m : Model_def.t) ->
        let s = synthesize scale m in
        let f =
          match
            Model_def.fuzz ~cache:(cache ()) ~sink ~fuzz_config ~k:scale.k
              ~timeout:(Float.max 1.0 (m.timeout *. scale.timeout_scale))
              ?jobs:!jobs ~oracle m s
          with
          | Ok f -> f
          | Error e -> failwith (m.id ^ ": fuzz: " ^ e)
        in
        let sum sel =
          List.fold_left
            (fun acc (d : Eywa_fuzz.Fuzz.draw_fuzz) -> acc + sel d)
            0 f.Eywa_fuzz.Fuzz.per_draw
        in
        let edges_seed = sum (fun d -> d.edges_seed) in
        let edges_after = sum (fun d -> d.edges_after) in
        let edges_static = sum (fun d -> d.edges_static) in
        let dis tests =
          (Dns_adapter.run ?jobs:!jobs ~model_id:m.id
             ~version:Eywa_dns.Impls.Old tests)
            .Difftest.disagreeing_tests
        in
        let symex_tests = List.length s.Pipeline.unique_tests in
        let fuzz_tests = List.length f.Eywa_fuzz.Fuzz.fuzz_tests in
        let dis_symex = dis s.Pipeline.unique_tests in
        let dis_combined = dis f.Eywa_fuzz.Fuzz.combined_tests in
        Printf.printf "%-11s %7d %7d  %4d / %-6d %4d / %-6d %9d %9d\n" m.id
          symex_tests fuzz_tests edges_seed edges_static edges_after
          edges_static dis_symex dis_combined;
        let increased = edges_after > edges_seed in
        ( increased,
          Json.Obj
            [
              ("model", Json.Str m.id);
              ("symex_tests", Json.Int symex_tests);
              ("fuzz_tests", Json.Int fuzz_tests);
              ("edges_symex", Json.Int edges_seed);
              ("edges_combined", Json.Int edges_after);
              ("edges_static", Json.Int edges_static);
              ("disagreeing_symex", Json.Int dis_symex);
              ("disagreeing_combined", Json.Int dis_combined);
              ("strict_increase", Json.Bool increased);
            ] ))
      models
  in
  let increased = List.length (List.filter fst rows) in
  Printf.printf "%s\nedge coverage strictly increased on %d of %d models\n" line
    increased (List.length rows);
  write_json ~what:"fuzz" !fuzz_json
    (Json.Obj
       [
         ("bench", Json.Str "eywa-fuzz");
         ("fuzz_budget", Json.Int scale.fuzz_budget);
         ("models", Json.List (List.map snd rows));
         ("any_strict_increase", Json.Bool (increased > 0));
       ])

(* ----- driver ----- *)

(* Per-stage instrumentation: (name, wall seconds, collector summary
   before, after). The JSON deltas come out of the collector, so the
   tick/hit/miss totals are exactly what the pipeline reported. *)
let stage_log :
    (string * float * Instrument.Collector.summary * Instrument.Collector.summary)
    list ref =
  ref []

let staged name f =
  let before = Instrument.Collector.summary collector in
  let t0 = Unix.gettimeofday () in
  f ();
  let dt = Unix.gettimeofday () -. t0 in
  let after = Instrument.Collector.summary collector in
  stage_log := (name, dt, before, after) :: !stage_log

(* The document is canonical [Serialize.Json]; "totals" is the schema
   shared with [eywa stats --json] ({!Eywa_obs.Export.summary_totals}),
   so both validate with [eywa trace --json PATH]. *)
let write_summary_json path ~fast ~total_seconds =
  let stage_json (name, dt, before, after) =
    Json.Obj
      (("stage", Json.Str name)
      :: ("wall_seconds", Json.Float dt)
      :: Eywa_obs.Export.summary_fields
           (Instrument.Collector.delta ~before after))
  in
  let s = Instrument.Collector.summary collector in
  write_json ~what:"summary" path
    (Json.Obj
       [
         ("bench", Json.Str "eywa");
         ("scale", Json.Str (if fast then "fast" else "full"));
         ("jobs", Json.Int (Eywa_core.Pool.jobs !jobs));
         ("total_seconds", Json.Float total_seconds);
         ("stages", Json.List (List.rev_map stage_json !stage_log));
         ("totals", Eywa_obs.Export.summary_totals s);
       ])

(* Every stage in run order. *)
let stages =
  [
    ("table1", fun _ -> table1 ());
    ("table2", table2);
    ("table3", table3);
    ("fig10", fig10);
    ("timing", timing);
    ("ablate", ablate);
    ("fuzz", fuzz_stage);
    ("micro", fun _ -> micro ());
  ]

let usage_error fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.eprintf
        "bench: %s\n\
         usage: main.exe [fast] [all | STAGE...] [--jobs N] [--cache-dir DIR]\n\
        \       [--summary-json PATH] [--fuzz-json PATH]\n\
         stages: %s\n"
        msg
        (String.concat " " (List.map fst stages));
      exit 2)
    fmt

let () =
  let rec parse_flags = function
    | [] -> []
    | "--jobs" :: v :: rest ->
        (match int_of_string_opt v with
        | Some j -> jobs := Some j
        | None -> usage_error "--jobs takes an integer, not %s" v);
        parse_flags rest
    | "--cache-dir" :: d :: rest ->
        cache_dir := Some d;
        parse_flags rest
    | "--summary-json" :: p :: rest ->
        summary_json := Some p;
        parse_flags rest
    | "--fuzz-json" :: p :: rest ->
        fuzz_json := p;
        parse_flags rest
    | a :: _ when String.starts_with ~prefix:"-" a ->
        usage_error "unknown or incomplete option %s" a
    | a :: rest -> a :: parse_flags rest
  in
  let args = parse_flags (Array.to_list Sys.argv |> List.tl) in
  let fast = List.mem "fast" args in
  let scale = if fast then fast_scale else full_scale in
  let commands = List.filter (fun a -> a <> "fast") args in
  List.iter
    (fun c ->
      if c <> "all" && not (List.mem_assoc c stages) then
        usage_error "unknown stage %s" c)
    commands;
  let run_all = commands = [] || List.mem "all" commands in
  let t0 = Unix.gettimeofday () in
  List.iter
    (fun (name, stage) ->
      if run_all || List.mem name commands then
        staged name (fun () -> stage scale))
    stages;
  let total_seconds = Unix.gettimeofday () -. t0 in
  Printf.printf "\n%s\ntotal bench time: %.1f s%s\n" line total_seconds
    (if fast then " (fast scale)" else "");
  match !summary_json with
  | None -> ()
  | Some path -> write_summary_json path ~fast ~total_seconds
