module Ast = Eywa_minic.Ast
module Interp = Eywa_minic.Interp
module Pipeline = Eywa_core.Pipeline
module Cache = Eywa_core.Cache
module Instrument = Eywa_core.Instrument
module Testcase = Eywa_core.Testcase
module Serialize = Eywa_core.Serialize
module Harness = Eywa_core.Harness
module Emodule = Eywa_core.Emodule
module Graph = Eywa_core.Graph
module Pool = Eywa_core.Pool

type config = {
  fuzz_seed : int;
  budget : int;
  max_new_tests : int;
  mutators : Mutate.kind list;
  fuel : int;
}

let default_config =
  {
    fuzz_seed = 42;
    budget = 500;
    max_new_tests = 64;
    mutators = Mutate.all;
    fuel = 100_000;
  }

type draw_fuzz = {
  f_index : int;
  execs : int;
  edges_seed : int;
  edges_after : int;
  edges_static : int;
  new_tests : Testcase.t list;
}

type t = {
  per_draw : draw_fuzz list;
  fuzz_tests : Testcase.t list;
  combined_tests : Testcase.t list;
}

(* ----- cache key ----- *)

let fuzz_key ~oracle_name ~pipeline ~config ~prompts ~index =
  Cache.Key.v ~stage:"fuzz"
    (Pipeline.draw_key_parts ~oracle_name ~config:pipeline ~prompts ~index
    @ [
        (* effective seed, mirroring the draw-seed convention: two runs
           agreeing on fuzz_seed + index share the artifact *)
        ("fuzz_seed", string_of_int (config.fuzz_seed + index));
        ("fuzz_budget", string_of_int config.budget);
        ("fuzz_max_new_tests", string_of_int config.max_new_tests);
        ( "fuzz_mutators",
          String.concat "," (List.map Mutate.kind_to_string config.mutators) );
        ("fuzz_fuel", string_of_int config.fuel);
        (* the fuzz engine's version: bumped whenever a draw's artifact
           changes for the same inputs (2 = stop once every static edge
           is covered), so an older on-disk artifact misses *)
        ("fuzz", "2");
      ])

(* ----- the artifact codec ----- *)

let artifact_to_string (d : draw_fuzz) =
  let buf = Buffer.create 1024 in
  let line fmt =
    Printf.ksprintf
      (fun s ->
        Buffer.add_string buf s;
        Buffer.add_char buf '\n')
      fmt
  in
  line "eywa-fuzz 1";
  line "index %d" d.f_index;
  line "execs %d" d.execs;
  line "edges %d %d %d" d.edges_seed d.edges_after d.edges_static;
  line "tests %d" (List.length d.new_tests);
  List.iter (fun t -> line "%s" (Serialize.test_to_line t)) d.new_tests;
  Buffer.contents buf

let artifact_of_string s =
  let ( let* ) = Result.bind in
  let lines = ref (String.split_on_char '\n' s) in
  let next () =
    match !lines with
    | [] -> Error "truncated fuzz artifact"
    | l :: rest ->
        lines := rest;
        Ok l
  in
  let field name =
    let* l = next () in
    let p = name ^ " " in
    let pl = String.length p in
    if String.length l >= pl && String.sub l 0 pl = p then
      Ok (String.sub l pl (String.length l - pl))
    else Error (Printf.sprintf "expected %S line, found %S" name l)
  in
  let int_field name =
    let* v = field name in
    match int_of_string_opt v with
    | Some i -> Ok i
    | None -> Error (Printf.sprintf "bad %s value %S" name v)
  in
  let* header = next () in
  if header <> "eywa-fuzz 1" then Error "not a fuzz artifact"
  else
    let* f_index = int_field "index" in
    let* execs = int_field "execs" in
    let* edges_line = field "edges" in
    let* edges_seed, edges_after, edges_static =
      match String.split_on_char ' ' edges_line |> List.map int_of_string_opt with
      | [ Some s; Some a; Some t ] -> Ok (s, a, t)
      | _ -> Error (Printf.sprintf "bad edges line %S" edges_line)
    in
    let* n_tests = int_field "tests" in
    let rec read_tests acc = function
      | 0 -> Ok (List.rev acc)
      | n ->
          let* l = next () in
          let* t = Serialize.test_of_line l in
          read_tests (t :: acc) (n - 1)
    in
    let* new_tests = read_tests [] n_tests in
    Ok { f_index; execs; edges_seed; edges_after; edges_static; new_tests }

(* ----- one draw's fuzz loop ----- *)

(* The corpus in insertion order: an append-only growable array with
   running energy prefix sums ([sums.(i)] = energy of entries [0..i]),
   so scheduling a parent is a binary search, not a pass over the
   corpus (which grows to tens of thousands of seeds on zone models). *)
type corpus = {
  mutable inputs : (string * Eywa_minic.Value.t) list array;
  mutable sums : int array;
  mutable size : int;
}

let corpus_add c inputs energy =
  if c.size = Array.length c.inputs then begin
    let grow a fill =
      let b = Array.make (max 64 (2 * c.size)) fill in
      Array.blit a 0 b 0 c.size;
      b
    in
    c.inputs <- grow c.inputs [];
    c.sums <- grow c.sums 0
  end;
  let before = if c.size = 0 then 0 else c.sums.(c.size - 1) in
  c.inputs.(c.size) <- inputs;
  c.sums.(c.size) <- before + max 1 energy;
  c.size <- c.size + 1

(* Entry [i] with probability energy_i / total: the first entry whose
   prefix sum exceeds a uniform draw below the total. *)
let pick_parent rng c =
  let target = Rng.int rng c.sums.(c.size - 1) in
  let rec search lo hi =
    if lo = hi then lo
    else
      let mid = (lo + hi) / 2 in
      if c.sums.(mid) > target then search lo mid else search (mid + 1) hi
  in
  c.inputs.(search 0 (c.size - 1))

let fuzz_draw ~natives ~main ~config ~alphabet ~index program seeds =
  let rng = Rng.create (config.fuzz_seed + index) in
  let run = Coverage.runner ~fuel:config.fuel ~natives ~main program in
  let global = Interp.coverage_create () in
  (* one map serves every run: cleared after each, never reallocated *)
  let local = Interp.coverage_create () in
  (* seed the corpus from the symex suite: replay each seed test,
     energy = its coverage novelty at arrival (first tests earn more) *)
  let corpus = { inputs = [||]; sums = [||]; size = 0 } in
  List.iter
    (fun (t : Testcase.t) ->
      ignore (run ~coverage:local t.Testcase.inputs);
      let fresh = Coverage.news ~global local in
      Coverage.absorb ~into:global local;
      Interp.coverage_clear local;
      corpus_add corpus t.Testcase.inputs fresh)
    seeds;
  let edges_seed = Coverage.count global in
  let edges_static = List.length (Interp.static_edges program) in
  let mutators = if config.mutators = [] then Mutate.all else config.mutators in
  let new_tests = ref [] in
  let n_new = ref 0 in
  let execs = ref 0 in
  (* [Coverage.count global], kept up to date as keepers are absorbed *)
  let covered = ref edges_seed in
  (* Inputs this draw has run. A run's coverage is a pure function of
     its input, and the global map only grows: a seed's edges are all in
     it, and so are those of a candidate that was not kept. So a
     candidate already here cannot add an edge; it spends its budget
     tick unrun. Any subset of the inputs run is as exact, so the seeds
     go in only while there are no more of them than candidates: on
     FULLLOOKUP's three 15k-seed draws, indexing the seeds cost about
     0.03 s and spared 152 runs, about 2 ms. Built once the loop runs. *)
  let seen =
    lazy
      (let m = Memo.create (min corpus.size config.budget) in
       if corpus.size <= config.budget then
         List.iter (fun (t : Testcase.t) -> ignore (Memo.add m t.Testcase.inputs)) seeds;
       m)
  in
  (* the budget counts candidates — a deterministic tick budget in the
     sense of Exec.check_budget, never wall clock. A run only ever
     covers static edges, so once every one is covered no candidate can
     be kept: stopping there changes [execs] alone. Without a seed
     there is nothing to mutate. *)
  while
    !execs < config.budget
    && !n_new < config.max_new_tests
    && !covered < edges_static
    && corpus.size > 0
  do
    let parent = pick_parent rng corpus in
    let kind = Rng.pick rng mutators in
    let other =
      match kind with
      | Mutate.Splice -> Some corpus.inputs.(Rng.int rng corpus.size)
      | _ -> None
    in
    let candidate = Mutate.apply ~program ~alphabet ~rng kind ~other parent in
    incr execs;
    if Memo.add (Lazy.force seen) candidate then begin
      let test = run ~coverage:local candidate in
      let fresh = Coverage.news ~global local in
      if fresh > 0 then begin
        Coverage.absorb ~into:global local;
        covered := !covered + fresh;
        corpus_add corpus test.Testcase.inputs fresh;
        new_tests := test :: !new_tests;
        incr n_new
      end;
      Interp.coverage_clear local
    end
  done;
  {
    f_index = index;
    execs = !execs;
    edges_seed;
    edges_after = !covered;
    edges_static;
    new_tests = List.rev !new_tests;
  }

(* ----- the staged engine ----- *)

(* Pair each model result with its compiled program: [s.programs] holds
   exactly the programs of the results whose [compile_error] is [None],
   in index order (see [Pipeline.aggregate]). *)
let pair_draws (s : Pipeline.t) =
  let rec go results programs =
    match results with
    | [] -> []
    | (r : Pipeline.model_result) :: rest ->
        if r.compile_error = None then
          match programs with
          | p :: ps -> (r, Some p) :: go rest ps
          | [] -> (r, None) :: go rest []
        else (r, None) :: go rest programs
  in
  go s.results s.programs

let emit_fuzz_events sink (d : draw_fuzz) =
  sink
    (Instrument.Fuzz_done
       {
         index = d.f_index;
         execs = d.execs;
         edges_seed = d.edges_seed;
         edges_after = d.edges_after;
         new_tests = List.length d.new_tests;
       })

let fuzz_of_seeds ?cache ?(sink = Instrument.null) ?(config = default_config)
    ?jobs ~oracle_name ~pipeline g (s : Pipeline.t) =
  match Graph.synthesis_order g ~main:(Emodule.Func s.main) with
  | Error e -> Error e
  | Ok order ->
      let jobs =
        match jobs with Some j -> max 1 j | None -> Pool.default_jobs ()
      in
      let prompts = Pipeline.prompt_parts g ~order ~main:s.main in
      let natives = Harness.natives_concrete g s.main in
      let alphabet = pipeline.Pipeline.alphabet in
      let key_of index =
        fuzz_key ~oracle_name ~pipeline ~config ~prompts ~index
      in
      let units =
        List.filter_map
          (fun ((r : Pipeline.model_result), program) ->
            match program with
            | None -> None
            | Some p -> Some (r.Pipeline.index, p, r.Pipeline.tests))
          (pair_draws s)
      in
      (* probe the cache sequentially, in index order *)
      let cached =
        List.map
          (fun (index, program, seeds) ->
            match cache with
            | None -> (index, program, seeds, None)
            | Some c -> (
                match Cache.find ~sink c (key_of index) with
                | None -> (index, program, seeds, None)
                | Some payload -> (
                    match artifact_of_string payload with
                    | Ok d -> (index, program, seeds, Some d)
                    | Error _ ->
                        (* corrupt entry: fall back to computing *)
                        (index, program, seeds, None))))
          units
      in
      let missing =
        List.filter_map
          (fun (i, p, seeds, d) -> if d = None then Some (i, p, seeds) else None)
          cached
      in
      (* misses are independent pure units; fan out, merge by index *)
      let computed, pool_stats =
        Pool.with_pool ~jobs (fun pool ->
            Pool.map_stats pool
              (fun (i, p, seeds) ->
                (i, fuzz_draw ~natives ~main:s.main ~config ~alphabet ~index:i p seeds))
              missing)
      in
      sink
        (Instrument.Pool_merged
           {
             label = "fuzz";
             tasks = List.length units;
             computed = pool_stats.Pool.tasks;
             jobs = pool_stats.Pool.jobs;
             per_worker = pool_stats.Pool.per_worker;
             queue_wait_ticks = pool_stats.Pool.queue_wait_ticks;
           });
      (match cache with
      | None -> ()
      | Some c ->
          List.iter
            (fun (i, d) -> Cache.store c (key_of i) (artifact_to_string d))
            computed);
      let per_draw =
        List.map
          (fun (i, _, _, d) ->
            match d with Some d -> d | None -> List.assoc i computed)
          cached
      in
      List.iter (emit_fuzz_events sink) per_draw;
      (* the suite's keys come from its own dedup, not built again *)
      let symex_keys = Hashtbl.create (List.length s.unique_keys) in
      List.iter (fun k -> Hashtbl.replace symex_keys k ()) s.unique_keys;
      let fuzz_tests =
        Testcase.dedup_keyed (List.concat_map (fun d -> d.new_tests) per_draw)
        |> List.filter_map (fun (k, t) ->
               if Hashtbl.mem symex_keys k then None else Some t)
      in
      let combined_tests = s.unique_tests @ fuzz_tests in
      sink
        (Instrument.Fuzz_aggregated
           {
             draws = List.length per_draw;
             fuzz_tests = List.length fuzz_tests;
             combined_tests = List.length combined_tests;
           });
      Ok { per_draw; fuzz_tests; combined_tests }
