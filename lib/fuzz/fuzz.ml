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

let fuzz_header = "eywa-fuzz 1"

let artifact_to_string (d : draw_fuzz) =
  Serialize.Artifact.to_string ~header:fuzz_header
    [
      ("index", string_of_int d.f_index);
      ("execs", string_of_int d.execs);
      ("edges", Printf.sprintf "%d %d %d" d.edges_seed d.edges_after d.edges_static);
    ]
    d.new_tests

let artifact_of_string s =
  let module A = Serialize.Artifact in
  let ( let* ) = Result.bind in
  let* a = A.reader ~header:fuzz_header s in
  let* f_index = A.int a "index" in
  let* execs = A.int a "execs" in
  let* edges_line = A.field a "edges" in
  let* edges_seed, edges_after, edges_static =
    match String.split_on_char ' ' edges_line |> List.map int_of_string_opt with
    | [ Some s; Some a; Some t ] -> Ok (s, a, t)
    | _ -> Error (Printf.sprintf "bad edges line %S" edges_line)
  in
  let* new_tests = A.tests a in
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
   prefix sum exceeds a uniform draw below the total. Returns [i]. *)
let pick_parent rng c =
  let target = Rng.int rng c.sums.(c.size - 1) in
  let rec search lo hi =
    if lo = hi then lo
    else
      let mid = (lo + hi) / 2 in
      if c.sums.(mid) > target then search lo mid else search (mid + 1) hi
  in
  search 0 (c.size - 1)

(* A draw after its seed phase: the runner, the coverage maps and the
   corpus the mutation loop goes on with. *)
type seeded = {
  run : Coverage.runner;
  global : Interp.coverage;
  local : Interp.coverage;  (* one map serves every run: cleared after each *)
  corpus : corpus;
  edges_seed : int;
  edges_static : int;
}

(* Seed the corpus from the symex suite: replay each seed test,
   energy = its coverage novelty at arrival (first tests earn more). *)
let seed_draw ~natives ~main ~config program seeds =
  let run = Coverage.runner ~fuel:config.fuel ~natives ~main program in
  let global = Interp.coverage_create () in
  let local = Interp.coverage_create () in
  let corpus = { inputs = [||]; sums = [||]; size = 0 } in
  List.iter
    (fun (t : Testcase.t) ->
      ignore (run ~coverage:local t.Testcase.inputs);
      let fresh = Coverage.news ~global local in
      Coverage.absorb ~into:global local;
      Interp.coverage_clear local;
      corpus_add corpus t.Testcase.inputs fresh)
    seeds;
  {
    run;
    global;
    local;
    corpus;
    edges_seed = Coverage.count global;
    edges_static = List.length (Interp.static_edges program);
  }

(* The artifact of a mutation loop that keeps nothing: it runs until
   the budget is spent, unless it never starts (no budget, no keeper
   allowed, no seed, or every static edge already covered). *)
let unmutated ~config ~index sd =
  let loops =
    config.budget > 0 && config.max_new_tests > 0 && sd.corpus.size > 0
    && sd.edges_seed < sd.edges_static
  in
  {
    f_index = index;
    execs = (if loops then config.budget else 0);
    edges_seed = sd.edges_seed;
    edges_after = sd.edges_seed;
    edges_static = sd.edges_static;
    new_tests = [];
  }

(* A seeded draw the mutation loop may grow without touching [sd]: its
   own corpus and global map. The runner and the per-run [local] map
   are shared; a run leaves neither changed. *)
let private_copy sd =
  let global = Interp.coverage_create () in
  Coverage.absorb ~into:global sd.global;
  let c = sd.corpus in
  {
    sd with
    global;
    corpus =
      { inputs = Array.copy c.inputs; sums = Array.copy c.sums; size = c.size };
  }

let mutation_loop ~config ~alphabet ~index program seeds sd =
  let { run; global; local; corpus; edges_seed; edges_static } = sd in
  let rng = Rng.create (config.fuzz_seed + index) in
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
  (* Each corpus entry's mutation sites by position: counted when a seed
     is first picked, inherited by a keeper from its parent, whose shape
     it keeps. Only picked entries take room. *)
  let sites_of = Hashtbl.create 64 in
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
    let sites =
      match Hashtbl.find_opt sites_of parent with
      | Some s -> s
      | None ->
          let s = Mutate.sites corpus.inputs.(parent) in
          Hashtbl.add sites_of parent s;
          s
    in
    let kind = Rng.pick rng mutators in
    let other =
      match kind with
      | Mutate.Splice -> Some corpus.inputs.(Rng.int rng corpus.size)
      | _ -> None
    in
    let candidate =
      Mutate.apply ~sites ~program ~alphabet ~rng kind ~other corpus.inputs.(parent)
    in
    incr execs;
    if Memo.add (Lazy.force seen) candidate then begin
      let test = run ~coverage:local candidate in
      let fresh = Coverage.news ~global local in
      if fresh > 0 then begin
        Coverage.absorb ~into:global local;
        covered := !covered + fresh;
        Hashtbl.replace sites_of corpus.size sites;
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

let fuzz_draw ~natives ~main ~config ~alphabet ~index program seeds =
  seed_draw ~natives ~main ~config program seeds
  |> mutation_loop ~config ~alphabet ~index program seeds

(* ----- the staged engine ----- *)

(* Each compiled draw with its program and program id: [s.programs]
   and [s.program_ids] hold one entry per result whose [compile_error]
   is [None], in index order (see [Pipeline.aggregate]). *)
let compiled_draws (s : Pipeline.t) =
  let rec go results programs ids =
    match (results, programs, ids) with
    | (r : Pipeline.model_result) :: rest, p :: ps, id :: ids when r.compile_error = None
      ->
        (r, p, id) :: go rest ps ids
    | _ :: rest, _, _ -> go rest programs ids
    | [], _, _ -> []
  in
  go s.results s.programs s.program_ids

(* The cache misses grouped by program, in program-id order: each
   group's program, its seeds (the symex tests every draw of the
   program shares), whether its exploration is complete, and its draw
   indices in order. *)
let group_by_program pipeline misses =
  let groups =
    Array.make (List.fold_left (fun n (_, _, id) -> max n (id + 1)) 0 misses) []
  in
  List.iter (fun ((_, _, id) as d) -> groups.(id) <- d :: groups.(id)) (List.rev misses);
  List.filter_map
    (function
      | [] -> None
      | ((r : Pipeline.model_result), program, _) :: _ as draws ->
          Some
            ( program,
              r.tests,
              Pipeline.complete pipeline r,
              List.map (fun ((r : Pipeline.model_result), _, _) -> r.index) draws ))
    (Array.to_list groups)

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
      let prompts = Pipeline.prompt_parts g ~order ~main:s.main in
      let natives = Harness.natives_concrete g s.main in
      let alphabet = pipeline.Pipeline.alphabet in
      let key_of index =
        fuzz_key ~oracle_name ~pipeline ~config ~prompts ~index
      in
      let units = compiled_draws s in
      (* probe the cache sequentially, in index order *)
      let cached =
        List.map
          (fun (((r : Pipeline.model_result), _, _) as u) ->
            ( u,
              Option.bind cache (fun c ->
                  Cache.lookup ~sink c (key_of r.index) ~decode:artifact_of_string) ))
          units
      in
      let missing =
        List.filter_map (fun (u, d) -> if d = None then Some u else None) cached
      in
      (* each program the misses run is one pure unit: replay its seeds
         once, then give each of its draws its artifact. A complete
         exploration mutates nothing: no mutant of its seeds could be
         kept (Pipeline.complete), so each draw gets the artifact of a
         loop that keeps nothing. Otherwise each draw runs its own loop,
         at its own seed, on a private copy of the seeded corpus. Fan
         the units out, merge by index. *)
      let computed, pool_stats =
        Pool.with_pool ~jobs:(Pool.jobs jobs) (fun pool ->
            Pool.map_stats pool
              (fun (p, seeds, complete, indices) ->
                let sd = seed_draw ~natives ~main:s.main ~config p seeds in
                let last = List.length indices - 1 in
                List.mapi
                  (fun n i ->
                    ( i,
                      if complete then unmutated ~config ~index:i sd
                      else
                        (* the last loop may grow [sd] itself: nothing
                           reads it after *)
                        mutation_loop ~config ~alphabet ~index:i p seeds
                          (if n = last then sd else private_copy sd) ))
                  indices)
              (group_by_program pipeline missing))
      in
      sink (Instrument.pool_merged ~label:"fuzz" ~tasks:(List.length units) pool_stats);
      let computed = List.concat computed in
      Option.iter
        (fun c ->
          List.iter (fun (i, d) -> Cache.store c (key_of i) (artifact_to_string d)) computed)
        cache;
      let computed = Hashtbl.of_seq (List.to_seq computed) in
      let per_draw =
        List.map
          (fun (((r : Pipeline.model_result), _, _), d) ->
            match d with Some d -> d | None -> Hashtbl.find computed r.index)
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
