(* What the benchmark measures: its workloads and metrics, declared
   once. BENCHMARK.json is generated from these tables (--emit-spec) and
   the smoke test checks the committed file still matches them. *)

module Json = Eywa_core.Serialize.Json

type workload = {
  name : string;
  why : string;
  models : string list;  (** Table 2 ids, synthesized in this order *)
  k : int;
  pinned_draws : bool;
      (** draw the models at base seed 42 whatever [--seed] is: the
          workload is defined by those particular LLM draws *)
}

let workloads =
  [
    {
      name = "loop-guard";
      why =
        "WILDCARD k=3: one draft loops on the same guard and burns its whole \
         tick budget, so duplicate-conjunct symex dominates with little else";
      models = [ "WILDCARD" ];
      k = 3;
      pinned_draws = true;
    };
    {
      name = "zone-suite";
      why =
        "FULLLOOKUP k=3: a 36k-test suite, the one workload where \
         concretization, fuzz, difftest and attribution all do real work";
      models = [ "FULLLOOKUP" ];
      k = 3;
      pinned_draws = true;
    };
    {
      name = "small-models";
      why =
        "CNAME, CONFED, RR, SERVER at k=300: short complete explorations \
         across DNS, BGP and SMTP; fuzz-heavy, no symex budget hit";
      models = [ "CNAME"; "CONFED"; "RR"; "SERVER" ];
      k = 300;
      pinned_draws = false;
    };
  ]

let find_workload name = List.find_opt (fun w -> w.name = name) workloads

type better = Lower | Higher

type metric = {
  m_name : string;
  m_unit : string;
  better : better;
  bound : float option;  (** end-to-end metrics only *)
}

let e name m_unit better bound = { m_name = name; m_unit; better; bound = Some bound }
let l name m_unit better = { m_name = name; m_unit; better; bound = None }

let end_to_end =
  [
    e "setup_s" "s" Lower 0.25;
    e "wall_s" "s" Lower 0.2;
    e "cpu_s" "s" Lower 0.2;
    e "us_per_test" "us" Lower 0.2;
    e "unique_tests" "count" Higher 0.1;
    e "edges_covered" "count" Higher 0.05;
    e "bugs_found" "count" Higher 0.1;
    e "pass_rate" "ratio" Higher 0.0;
    e "peak_heap_mb" "MB" Lower 0.15;
  ]

let per_layer =
  [
    l "llm.s" "s" Lower;
    l "minic.compile_s" "s" Lower;
    l "minic.rejected" "count" Lower;
    l "symex.s" "s" Lower;
    l "symex.max_draw_s" "s" Lower;
    l "symex.us_per_tick" "us" Lower;
    l "symex.ticks" "count" Lower;
    l "symex.paths" "count" Higher;
    l "symex.pruned" "count" Lower;
    l "symex.timed_out_draws" "count" Lower;
    l "symex.solver_calls" "count" Lower;
    l "symex.solver_decisions" "count" Lower;
    l "symex.pc_dup_ratio" "ratio" Lower;
    l "concretize.s" "s" Lower;
    l "concretize.tests" "count" Higher;
    l "aggregate.s" "s" Lower;
    l "aggregate.dup_ratio" "ratio" Lower;
    l "fuzz.s" "s" Lower;
    l "fuzz.execs" "count" Lower;
    l "fuzz.keepers" "count" Higher;
    l "fuzz.keep_ratio" "ratio" Higher;
    l "fuzz.edges_gained" "count" Higher;
    l "difftest.s" "s" Lower;
    l "difftest.observations" "count" Higher;
    l "difftest.disagreeing" "count" Higher;
    l "difftest.us_per_obs" "us" Lower;
    l "attrib.s" "s" Lower;
    l "attrib.bugs" "count" Higher;
    l "check.s" "s" Lower;
    l "trace.overhead_s" "s" Lower;
  ]

let run_seconds = 35

let metric_json m =
  Json.Obj
    ([
       ("name", Json.Str m.m_name);
       ("unit", Json.Str m.m_unit);
       ("better", Json.Str (match m.better with Lower -> "lower" | Higher -> "higher"));
     ]
    @ match m.bound with Some b -> [ ("bound", Json.Float b) ] | None -> [])

(* The BENCHMARK.json document. *)
let to_json () =
  Json.Obj
    [
      ("command", Json.List [ Json.Str "bash"; Json.Str "perfbench/run.sh" ]);
      ("paths", Json.List [ Json.Str "perfbench" ]);
      ("run_seconds", Json.Int run_seconds);
      ( "workloads",
        Json.List
          (List.map
             (fun w -> Json.Obj [ ("name", Json.Str w.name); ("why", Json.Str w.why) ])
             workloads) );
      ("end_to_end", Json.List (List.map metric_json end_to_end));
      ("per_layer", Json.List (List.map metric_json per_layer));
    ]
