module Instrument = Eywa_core.Instrument
module Stat = Instrument.Stat
module Json = Eywa_core.Serialize.Json

type sample =
  | Counter of int
  | Gauge of float
  | Histogram of { bounds : float list; observations : float list }
  | Counters of { label : string; cells : (string * int) list }

(* One exposed metric: a fold of the whole event log into its sample. *)
type metric = {
  name : string;
  help : string;
  cls : Instrument.cls;
  fold : Instrument.event list -> sample;
}

let sum f events = List.fold_left (fun n ev -> n + f ev) 0 events

let counter ?(help = "") name cls f =
  { name; help; cls; fold = (fun events -> Counter (sum f events)) }

(* An [Int] row is a counter; a [Float] row is a gauge holding its
   total. *)
let row (Stat.Row st) =
  match st.kind with
  | Int -> counter ~help:st.help st.metric st.cls st.of_event
  | Float ->
      let fold events =
        Gauge (List.fold_left (fun x ev -> x +. st.of_event ev) 0.0 events)
      in
      { name = st.metric; help = st.help; cls = st.cls; fold }

(* one observation per [on] event: the row's contribution from it.
   Buckets are fixed here, never derived from observed data, so a
   histogram is as jobs-invariant as the event order. *)
let histogram name ~help ~buckets (st : int Stat.t) on =
  let fold events =
    Histogram
      {
        bounds = buckets;
        observations =
          List.filter_map
            (fun ev -> if on ev then Some (float_of_int (st.of_event ev)) else None)
            events;
      }
  in
  { name; help; cls = Det; fold }

let worker_tasks events =
  let cells = Hashtbl.create 8 in
  List.iter
    (function
      | Instrument.Pool_merged { per_worker; _ } ->
          List.iteri
            (fun w n ->
              let w = string_of_int w in
              Hashtbl.replace cells w
                (n + Option.value ~default:0 (Hashtbl.find_opt cells w)))
            per_worker
      | _ -> ())
    events;
  Counters
    {
      label = "worker";
      cells = List.sort compare (List.of_seq (Hashtbl.to_seq cells));
    }

let last_jobs events =
  Gauge
    (List.fold_left
       (fun jobs -> function
         | Instrument.Pool_merged { jobs; _ } -> float_of_int jobs | _ -> jobs)
       0.0 events)

(* Exposition order: the pool's environment instruments, then the Env
   rows, the histograms and the Det rows, each group last-declared
   first — the order earlier releases printed, so expositions diff
   cleanly across versions. *)
let table =
  let rows cls =
    List.rev (List.filter (fun (Stat.Row st) -> st.cls = cls) Stat.rows)
    |> List.map row
  in
  [
    { name = "eywa_pool_worker_tasks_total"; help = ""; cls = Env;
      fold = worker_tasks };
    { name = "eywa_pool_jobs"; help = "last batch's pool size"; cls = Env;
      fold = last_jobs };
    counter "eywa_pool_queue_wait_ticks_total" Env (function
      | Pool_merged { queue_wait_ticks = n; _ } -> n | _ -> 0);
    counter "eywa_pool_computed_total" Env
      ~help:
        "units executed this run (for the draw and fuzz batches, the \
         distinct compiled programs explored or seeded)"
      (function Pool_merged { computed = n; _ } -> n | _ -> 0);
  ]
  @ rows Env
  @ [
      histogram "eywa_difftest_execs" ~help:"implementation executions per suite"
        ~buckets:[ 10.; 100.; 1_000.; 10_000.; 100_000. ]
        Stat.difftest_execs
        (function Difftest_done _ -> true | _ -> false);
      histogram "eywa_fuzz_edges_gained" ~help:"edge gain per fuzz round"
        ~buckets:[ 0.; 1.; 2.; 5.; 10.; 20.; 50. ]
        Stat.fuzz_edges_gained
        (function Fuzz_done _ -> true | _ -> false);
      histogram "eywa_symex_ticks" ~help:"ticks per draw"
        ~buckets:[ 100.; 1_000.; 10_000.; 100_000.; 1_000_000.; 10_000_000. ]
        Stat.symex_ticks
        (function Symex_done _ -> true | _ -> false);
      histogram "eywa_draw_tests" ~help:"tests per draw"
        ~buckets:[ 0.; 1.; 2.; 5.; 10.; 20.; 50.; 100.; 200. ]
        Stat.tests
        (function Draw_finished _ -> true | _ -> false);
    ]
  @ rows Det

let float_str f = Json.to_string (Json.Float f)

let expose ?(strip_env = false) events =
  let buf = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  List.iter
    (fun { name; help; cls; fold } ->
      if not (strip_env && cls = Env) then begin
        if help <> "" then line "# HELP %s %s" name help;
        match fold events with
        | Counter n ->
            line "# TYPE %s counter" name;
            line "%s %d" name n
        | Gauge v ->
            line "# TYPE %s gauge" name;
            line "%s %s" name (float_str v)
        | Histogram { bounds; observations } ->
            line "# TYPE %s histogram" name;
            List.iter
              (fun b ->
                line "%s_bucket{le=\"%s\"} %d" name (float_str b)
                  (List.length (List.filter (fun v -> v <= b) observations)))
              bounds;
            line "%s_bucket{le=\"+Inf\"} %d" name (List.length observations);
            line "%s_sum %s" name
              (float_str (List.fold_left ( +. ) 0.0 observations));
            line "%s_count %d" name (List.length observations)
        | Counters { label; cells } ->
            line "# TYPE %s counter" name;
            List.iter (fun (k, v) -> line "%s{%s=\"%s\"} %d" name label k v) cells
      end)
    table;
  Buffer.contents buf
