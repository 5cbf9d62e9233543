module Quirkset = Eywa_quirkset.Quirkset

type fields = (string * string) list

type observation = { impl : string; fields : fields }

type disagreement = {
  d_impl : string;
  d_field : string;
  d_got : string;
  d_majority : string;
}

(* Counted in an association list: observations that share a run share
   their strings, so most lookups end at a pointer test. *)
let field_majority values =
  let counts = ref [] in
  List.iter
    (fun (_, v) ->
      match List.assoc_opt v !counts with
      | Some n -> incr n
      | None -> counts := (v, ref 1) :: !counts)
    values;
  let best =
    List.fold_left
      (fun acc (v, n) ->
        match acc with
        | Some (bv, bn) when !n < bn || (!n = bn && v > bv) -> acc
        | Some _ | None -> Some (v, !n))
      None !counts
  in
  match best with Some (v, _) -> v | None -> ""

let compare_all observations =
  match observations with
  | [] | [ _ ] -> []
  | first :: _ ->
      let field_names = List.map fst first.fields in
      List.concat_map
        (fun field ->
          let values =
            List.filter_map
              (fun o ->
                match List.assoc_opt field o.fields with
                | Some v -> Some (o.impl, v)
                | None -> None)
              observations
          in
          let majority = field_majority values in
          List.filter_map
            (fun (impl, v) ->
              if v = majority then None
              else
                Some { d_impl = impl; d_field = field; d_got = v; d_majority = majority })
            values)
        field_names

(* ----- serving a test: one engine run per quirk set that can differ ----- *)

(* A run under [quirks] that consulted only [consulted]. Every quirk
   set that agrees with [quirks] on [consulted] takes the same path
   through the engine, so it shares [outcome], rendered at most once as
   [fields], without a run of its own. *)
type ('q, 'r) engine_run = {
  quirks : 'q list;
  consulted : 'q list;
  outcome : 'r;
  fields : fields Lazy.t;
}

(* One test's engine runs so far. *)
type ('q, 'r) memo = {
  serve : 'q Quirkset.t -> 'r;
  render : 'r -> fields;
  mutable runs : ('q, 'r) engine_run list;
}

let agrees set r =
  List.for_all
    (fun q -> Bool.equal (Quirkset.mem q set) (Quirkset.mem q r.quirks))
    r.consulted

let run_under memo quirks =
  match List.find_opt (agrees quirks) memo.runs with
  | Some r -> r
  | None ->
      let set = Quirkset.of_list quirks in
      let outcome = memo.serve set in
      let r =
        {
          quirks;
          consulted = Quirkset.consulted set;
          outcome;
          fields = lazy (memo.render outcome);
        }
      in
      memo.runs <- memo.runs @ [ r ];
      r

(* The reference runs first: most implementations share its outcome. *)
let memo_of ~render serve =
  let memo = { serve; render; runs = [] } in
  ignore (run_under memo []);
  memo

let observe_runs runs =
  List.map (fun (impl, r) -> { impl; fields = Lazy.force r.fields }) runs

let impl_runs memo impls =
  List.map (fun (impl, quirks) -> (impl, run_under memo quirks)) impls

let observe ~impls ~render serve =
  observe_runs (impl_runs (memo_of ~render serve) impls)

type accum = {
  mutable total : int;
  mutable disagreeing : int;
  mutable observations : int;
  counts : (disagreement, int) Hashtbl.t;
}

type report = {
  total_tests : int;
  disagreeing_tests : int;
  observations : int;
  tuples : (disagreement * int) list;
}

let create () =
  { total = 0; disagreeing = 0; observations = 0; counts = Hashtbl.create 64 }

let tally acc ~observations ds =
  acc.total <- acc.total + 1;
  acc.observations <- acc.observations + observations;
  if ds <> [] then acc.disagreeing <- acc.disagreeing + 1;
  List.iter
    (fun d ->
      let n = try Hashtbl.find acc.counts d with Not_found -> 0 in
      Hashtbl.replace acc.counts d (n + 1))
    ds

let record acc observations =
  let ds = compare_all observations in
  tally acc ~observations:(List.length observations) ds;
  ds

let report acc =
  let tuples =
    Hashtbl.fold (fun d n l -> (d, n) :: l) acc.counts []
    |> List.sort (fun (da, na) (db, nb) ->
           if na <> nb then compare nb na else compare da db)
  in
  {
    total_tests = acc.total;
    disagreeing_tests = acc.disagreeing;
    observations = acc.observations;
    tuples;
  }

let run ?jobs ?(sink = Eywa_core.Instrument.null) ?(label = "suite")
    ?(on_test = fun _ _ -> ()) ~impls ~render ~prepare tests =
  (* [compare_all] is pure, so it runs in the worker too: the merge
     then holds only each test's disagreements, not every rendered
     observation of the suite *)
  let judge t =
    Option.map
      (fun serve ->
        let obs = observe ~impls ~render serve in
        (List.length obs, compare_all obs))
      (prepare t)
  in
  let results, stats =
    Eywa_core.Pool.with_pool ~jobs:(Eywa_core.Pool.jobs jobs) (fun pool ->
        Eywa_core.Pool.map_stats pool judge tests)
  in
  (* like the pipeline, events fire only at the merge point, on the
     orchestrating domain, after the deterministic index-ordered merge *)
  sink
    (Eywa_core.Instrument.pool_merged ~label:("difftest:" ^ label)
       ~tasks:(List.length tests) stats);
  let acc = create () in
  List.iter2
    (fun t -> function
      | None -> ()
      | Some (observations, ds) ->
          tally acc ~observations ds;
          on_test t ds)
    tests results;
  let r = report acc in
  sink
    (Eywa_core.Instrument.Difftest_done
       {
         label;
         total_tests = r.total_tests;
         disagreeing_tests = r.disagreeing_tests;
         tuples = List.length r.tuples;
         execs = r.observations;
       });
  r

(* Root-cause attribution (§4.2). A test tries only the pairs that no
   earlier chunk confirmed. Whether a test confirms a pair does not
   depend on that snapshot, and a pair is skipped only after the chunk
   holding its first confirming test, so the merge sees every pair first
   at the same index as when every test tries every pair: the result is
   the same for any chunk size and pool. Once no pair is left untried,
   no later test is prepared at all.

   Of those pairs a test tries only the quirks the implementation's own
   run consulted: removing any other quirk replays the same run, so it
   cannot confirm. So a test first serves the reference and the runs of
   the implementations that still have an untried pair; only if one of
   those runs consulted an untried quirk are the other implementations
   served, and the observations rendered and voted on. Serving those
   runs first can change which run an implementation shares, never its
   outcome or the quirks it consulted. *)

let attribute_chunk = 256

let untried_pairs impls known =
  List.filter_map
    (fun (impl, own) ->
      match List.filter (fun q -> not (List.mem (impl, q) known)) own with
      | [] -> None
      | untried -> Some (impl, own, untried))
    impls

let attribute ?jobs ~suspects ~impls ~render ~prepare tests =
  let confirmed untried t =
    match prepare t with
    | None -> []
    | Some serve -> (
        let memo = memo_of ~render serve in
        (* [r] may be an earlier implementation's run that agrees with
           [own] only on the quirks it consulted. [own]'s run takes the
           same path, so it consults the same quirks and has the same
           outcome; but a quirk is removed from [own], never from
           [r.quirks], which can differ from [own] elsewhere. *)
        let candidates =
          List.filter_map
            (fun (impl, own, qs) ->
              let r = run_under memo own in
              match List.filter (fun q -> Quirkset.mem q r.consulted) qs with
              | [] -> None
              | qs -> Some (impl, (own, r.outcome, qs)))
            untried
        in
        if candidates = [] then []
        else
          match compare_all (observe_runs (impl_runs memo impls)) with
          | [] -> []
          | ds ->
              List.concat_map
                (fun impl ->
                  match List.assoc_opt impl candidates with
                  | None -> []
                  | Some (own, outcome, qs) ->
                      List.filter_map
                        (fun q ->
                          let without = List.filter (fun x -> x <> q) own in
                          if (run_under memo without).outcome <> outcome then
                            Some (impl, q)
                          else None)
                        qs)
                (suspects ds))
  in
  let note known pair = if List.mem pair known then known else pair :: known in
  Eywa_core.Pool.with_pool ~jobs:(Eywa_core.Pool.jobs jobs) (fun pool ->
      let rec go known chunk n = function
        | t :: rest when n < attribute_chunk ->
            go known (t :: chunk) (n + 1) rest
        | rest -> (
            match untried_pairs impls known with
            | [] -> List.rev known
            | untried -> (
                let known =
                  List.fold_left (List.fold_left note) known
                    (Eywa_core.Pool.map pool (confirmed untried)
                       (List.rev chunk))
                in
                match rest with [] -> List.rev known | _ -> go known [] 0 rest))
      in
      go [] [] 0 tests)

let dissenters ds =
  List.rev
    (List.fold_left
       (fun acc d -> if List.mem d.d_impl acc then acc else d.d_impl :: acc)
       [] ds)

let impls_in_report r =
  List.sort_uniq compare (List.map (fun (d, _) -> d.d_impl) r.tuples)

let tuples_for r impl = List.filter (fun (d, _) -> d.d_impl = impl) r.tuples

let pp_report ppf r =
  Format.fprintf ppf "tests: %d, with disagreements: %d, unique tuples: %d@."
    r.total_tests r.disagreeing_tests (List.length r.tuples);
  List.iter
    (fun (d, n) ->
      Format.fprintf ppf "  (%s, %s, %s, %s) x%d@." d.d_impl d.d_field
        (if String.length d.d_got > 60 then String.sub d.d_got 0 60 ^ "..." else d.d_got)
        (if String.length d.d_majority > 60 then
           String.sub d.d_majority 0 60 ^ "..."
         else d.d_majority)
        n)
    r.tuples
