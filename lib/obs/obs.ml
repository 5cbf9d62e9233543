module Instrument = Eywa_core.Instrument
module Stat = Instrument.Stat

type t = {
  mutex : Mutex.t;
  builder : Trace.builder;
  registry : Metrics.t;
  feed : Instrument.event -> unit;  (* updates every instrument *)
}

(* An [Int] row is a counter; a [Float] row is a gauge holding its
   running total. *)
let row_instrument reg (Stat.Row st) : Instrument.event -> unit =
  let cls = st.cls and help = st.help in
  match st.kind with
  | Int ->
      let c = Metrics.counter reg ~cls ~help st.metric in
      fun ev -> Metrics.inc c (st.of_event ev)
  | Float ->
      let g = Metrics.gauge reg ~cls ~help st.metric in
      let total = ref 0.0 in
      fun ev ->
        total := !total +. st.of_event ev;
        Metrics.set_gauge g !total

(* Registers the standard instruments and returns their feed.
   Registration order is exposition order, and this one (the pool's
   environment instruments, then the Env rows, the histograms and the
   Det rows, each group last-declared first) is the order earlier
   releases printed, so expositions diff cleanly across versions.
   Histogram buckets are fixed here, never derived from observed data,
   so merged histograms are jobs-invariant: observations happen at the
   deterministic merge point in input-index order. *)
let instruments reg =
  let rows cls =
    List.rev (List.filter (fun (Stat.Row st) -> st.cls = cls) Stat.rows)
    |> List.map (row_instrument reg)
  in
  (* one observation per [on] event: the row's contribution from it *)
  let histogram name ~help ~buckets (st : int Stat.t) on =
    let h = Metrics.histogram reg ~help ~buckets name in
    fun ev -> if on ev then Metrics.observe h (float_of_int (st.of_event ev))
  in
  let worker_tasks =
    Metrics.counter_vec reg ~cls:Env ~label:"worker"
      "eywa_pool_worker_tasks_total"
  in
  let jobs =
    Metrics.gauge reg ~cls:Env "eywa_pool_jobs" ~help:"last batch's pool size"
  in
  let queue_wait =
    Metrics.counter reg ~cls:Env "eywa_pool_queue_wait_ticks_total"
  in
  let computed =
    Metrics.counter reg ~cls:Env "eywa_pool_computed_total"
      ~help:
        "units executed this run (for the draw and fuzz batches, the \
         distinct compiled programs explored or seeded)"
  in
  let pool : Instrument.event -> unit = function
    | Pool_merged p ->
        Metrics.inc computed p.computed;
        Metrics.inc queue_wait p.queue_wait_ticks;
        Metrics.set_gauge jobs (float_of_int p.jobs);
        List.iteri
          (fun w n -> Metrics.inc_vec worker_tasks (string_of_int w) n)
          p.per_worker
    | _ -> ()
  in
  let env_rows = rows Env in
  let difftest_execs =
    histogram "eywa_difftest_execs" ~help:"implementation executions per suite"
      ~buckets:[ 10.; 100.; 1_000.; 10_000.; 100_000. ]
      Stat.difftest_execs
      (function Difftest_done _ -> true | _ -> false)
  in
  let fuzz_edges_gained =
    histogram "eywa_fuzz_edges_gained" ~help:"edge gain per fuzz round"
      ~buckets:[ 0.; 1.; 2.; 5.; 10.; 20.; 50. ]
      Stat.fuzz_edges_gained
      (function Fuzz_done _ -> true | _ -> false)
  in
  let symex_ticks =
    histogram "eywa_symex_ticks" ~help:"ticks per draw"
      ~buckets:[ 100.; 1_000.; 10_000.; 100_000.; 1_000_000.; 10_000_000. ]
      Stat.symex_ticks
      (function Symex_done _ -> true | _ -> false)
  in
  let draw_tests =
    histogram "eywa_draw_tests" ~help:"tests per draw"
      ~buckets:[ 0.; 1.; 2.; 5.; 10.; 20.; 50.; 100.; 200. ]
      Stat.tests
      (function Draw_finished _ -> true | _ -> false)
  in
  let det_rows = rows Det in
  let all =
    (pool :: env_rows)
    @ [ difftest_execs; fuzz_edges_gained; symex_ticks; draw_tests ]
    @ det_rows
  in
  fun ev -> List.iter (fun feed -> feed ev) all

let create ~label () =
  let registry = Metrics.create () in
  {
    mutex = Mutex.create ();
    builder = Trace.builder ~label;
    registry;
    feed = instruments registry;
  }

let sink t : Instrument.sink =
  fun ev ->
    Mutex.lock t.mutex;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock t.mutex)
      (fun () ->
        Trace.feed t.builder ev;
        t.feed ev)

let metrics t = t.registry

let finish t =
  Mutex.lock t.mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.mutex)
    (fun () -> Trace.finish t.builder)
