module Ast = Eywa_minic.Ast
module Parser = Eywa_minic.Parser
module Typecheck = Eywa_minic.Typecheck
module Pretty = Eywa_minic.Pretty
module Value = Eywa_minic.Value
module Interp = Eywa_minic.Interp
module Exec = Eywa_symex.Exec
module Sv = Eywa_symex.Sv

type config = {
  k : int;
  temperature : float;
  timeout : float;
  max_paths : int;
  max_steps : int;
  max_solver_decisions : int;
  alphabet : char list;
  base_seed : int;
  samples_per_path : int;
}

let default_config =
  {
    k = 10;
    temperature = 0.6;
    timeout = 5.0;
    max_paths = 4096;
    max_steps = 20_000;
    max_solver_decisions = 200_000;
    alphabet = [ 'a'; 'b'; '.'; '*' ];
    base_seed = 42;
    samples_per_path = 4;
  }

type model_result = {
  index : int;
  c_source : string;
  c_loc : int;
  compile_error : string option;
  tests : Testcase.t list;
  stats : Exec.stats option;
  gen_seconds : float;
  symex_seconds : float;
}

type t = {
  main : Emodule.func;
  results : model_result list;
  unique_tests : Testcase.t list;
  unique_keys : string list;
  loc_min : int;
  loc_max : int;
  programs : Ast.program list;
  program_ids : int list;
}

type generated = { gen_index : int; source : string; funcs : Ast.func list }

let now () = Unix.gettimeofday ()

(* ----- stage 0: prompt artifacts ----- *)

let module_text g m =
  match m with
  | Emodule.Func f ->
      let p = Prompt.for_module g f in
      p.Prompt.system ^ "\x00" ^ p.Prompt.user
  | Emodule.Custom c -> c.source
  | Emodule.Regex r -> r.pattern

(* The pipe guards feeding a module shape the harness (Fig. 1b) even
   though no prompt mentions them; a cache key that skipped them would
   alias models that differ only in validity structure. *)
let pipe_text g m =
  String.concat "|"
    (List.map
       (fun src ->
         match src with
         | Emodule.Regex r ->
             Printf.sprintf "regex:%s=%s@%s" r.rname r.pattern
               r.target.Etype.Arg.name
         | other -> "mod:" ^ Emodule.name other)
       (Graph.pipes_into g m))

let prompt_parts g ~order ~main =
  ("main", main.Emodule.name)
  :: List.concat_map
       (fun m ->
         [
           ("module:" ^ Emodule.name m, module_text g m);
           ("pipes:" ^ Emodule.name m, pipe_text g m);
         ])
       order

(* ----- stage 1: one LLM draw ----- *)

(* Model index [index]'s text for module [m]: the oracle's completion
   for a Func module, the source of a Custom one, "" for a Regex. *)
let module_draft ~oracle ~config g ~index m =
  match m with
  | Emodule.Func f ->
      let prompt = Prompt.for_module g f in
      oracle.Oracle.complete
        {
          Oracle.system = prompt.Prompt.system;
          user = prompt.Prompt.user;
          temperature = config.temperature;
          seed = config.base_seed + index;
        }
  | Emodule.Custom c -> c.source
  | Emodule.Regex _ -> ""

let parse_module m text =
  match m with
  | Emodule.Func f -> (
      match Parser.parse_result text with
      | Error msg -> Error (Printf.sprintf "module %s: %s" f.name msg)
      | Ok parsed -> (
          match Ast.find_func parsed f.name with
          | None ->
              Error
                (Printf.sprintf "module %s: completion does not define %s" f.name
                   f.name)
          | Some fn -> Ok [ fn ]))
  | Emodule.Custom c -> (
      match Parser.parse_result text with
      | Error msg -> Error (Printf.sprintf "custom module %s: %s" c.cname msg)
      | Ok parsed -> Ok parsed.Ast.funcs)
  | Emodule.Regex _ -> Ok []

(* A draft's source text and functions from its modules' texts and
   parses, in synthesis order. *)
let assemble texts fns =
  (String.concat "\n\n" (List.filter (fun t -> t <> "") texts), List.concat fns)

(* Module by module, the oracle's text then its parse; the first module
   that does not parse ends the draw, so no later module is prompted. *)
let generate ~oracle ~config g ~order ~index =
  let rec go texts fns = function
    | [] ->
        let source, funcs = assemble (List.rev texts) (List.rev fns) in
        Ok { gen_index = index; source; funcs }
    | m :: rest -> (
        let text = module_draft ~oracle ~config g ~index m in
        match parse_module m text with
        | Error e -> Error e
        | Ok f -> go (text :: texts) (f :: fns) rest)
  in
  go [] [] order

(* ----- stage 2: compile ----- *)

let compile g ~main (gen : generated) =
  let program = Harness.build g ~main ~funcs:gen.funcs in
  match Typecheck.check program with Error e -> Error e | Ok () -> Ok program

(* ----- stage 3: symbolic execution ----- *)

let symex ~config g ~main program =
  let inputs = Harness.symbolic_inputs ~alphabet:config.alphabet main in
  let natives = Harness.natives_symbolic g main in
  let exec_config =
    {
      Exec.max_paths = config.max_paths;
      max_steps = config.max_steps;
      timeout = config.timeout;
      max_solver_decisions = config.max_solver_decisions;
      string_bound = 8;
      samples_per_path = max 1 config.samples_per_path;
    }
  in
  let paths, stats =
    Exec.run ~config:exec_config ~natives program ~entry:Harness.entry_name
      ~args:(List.map snd inputs) ~assumes:[]
  in
  (inputs, paths, stats)

(* ----- stage 4: paths to tests ----- *)

let path_to_test ~rotate ~model inputs (path : Exec.path) : Testcase.t =
  let concrete_inputs =
    List.map (fun (name, sv) -> (name, Sv.concretize ~rotate model sv)) inputs
  in
  match path.error with
  | Some e ->
      { Testcase.inputs = concrete_inputs; result = None; bad_input = false;
        error = Some e }
  | None -> (
      match Sv.concretize ~rotate model path.ret with
      | Value.Vstruct (_, fields) ->
          let bad_input =
            match List.assoc_opt "bad_input" fields with
            | Some (Value.Vbool b) -> b
            | _ -> false
          in
          let result = List.assoc_opt "result" fields in
          { Testcase.inputs = concrete_inputs; result; bad_input; error = None }
      | v ->
          { Testcase.inputs = concrete_inputs; result = Some v; bad_input = false;
            error = None })

(* One test per (path, sample): the path condition's models under
   different value rotations are several concrete witnesses of the same
   path, the way Klee's test generation covers bounded input spaces far
   more densely than one-per-path (cf. the Table 2 counts). The
   executor solved them when it completed the path ({!Exec.path}'s
   [samples]); this only reads them back. *)
let path_to_tests config (path : Exec.path) inputs : Testcase.t list =
  let samples = max 1 config.samples_per_path in
  if Array.length path.Exec.samples < samples - 1 then
    invalid_arg "Pipeline.tests_of_paths: paths explored under fewer samples_per_path";
  List.init samples (fun s ->
      let model = if s = 0 then path.Exec.model else path.Exec.samples.(s - 1) in
      path_to_test ~rotate:s ~model inputs path)

let tests_of_paths ~config ~inputs paths =
  Testcase.dedup (List.concat_map (fun p -> path_to_tests config p inputs) paths)

(* ----- stages 1-2 composed: a draw's front ----- *)

(* A draft's front from its parse: line-counted and compiled, or
   rejected with a stage tag. It is the front of every draw that drew
   the draft, bar the draw's [index] and [gen_seconds] (left at 0). *)
let build g ~main parsed =
  let draw ?(c_source = "") ?(c_loc = 0) ?compile_error () =
    { index = 0; c_source; c_loc; compile_error; tests = []; stats = None;
      gen_seconds = 0.0; symex_seconds = 0.0 }
  in
  match parsed with
  | Error e ->
      (* stage-tagged so parallel failure logs are attributable: this
         branch covers oracle completions that do not parse or do not
         define the requested function *)
      (draw ~compile_error:("oracle: " ^ e) (), None)
  | Ok (gen : generated) -> (
      let c_loc =
        List.fold_left (fun acc f -> acc + Pretty.loc (Pretty.func f)) 0 gen.funcs
      in
      match compile g ~main gen with
      | Error e ->
          (draw ~c_source:gen.source ~c_loc ~compile_error:("typecheck: " ^ e) (), None)
      | Ok program -> (draw ~c_source:gen.source ~c_loc (), Some program))

let front ~oracle ~config g ~main ~order index : model_result * Ast.program option =
  let gen_start = now () in
  let parsed = generate ~oracle ~config g ~order ~index in
  let gen_seconds = now () -. gen_start in
  let r, program = build g ~main parsed in
  ({ r with index; gen_seconds }, program)

(* ----- stages 3-4 composed: a program's exploration ----- *)

let explore ~config g ~main program =
  (* fresh atom ids per exploration, so identical programs yield
     identical paths, rotations and tests on any worker (tau = 0
     determinism); the intern scope, and with it the refutation table,
     is the caller's *)
  Eywa_solver.Term.with_fresh_vids @@ fun () ->
  let sym_start = now () in
  let inputs, paths, stats = symex ~config g ~main program in
  let symex_seconds = now () -. sym_start in
  (tests_of_paths ~config ~inputs paths, stats, symex_seconds)

let with_exploration (r : model_result) (tests, stats, symex_seconds) =
  { r with tests; stats = Some stats; symex_seconds }

let run_draw ~oracle ~config g ~main ~order index =
  match front ~oracle ~config g ~main ~order index with
  | r, None -> (r, None)
  | r, Some program ->
      (with_exploration r (explore ~config g ~main program), Some program)

(* The stats fields first: they are free, and most incomplete draws
   fail one of them; only a draw that passes them has its tests read. *)
let complete config (r : model_result) =
  match (r.compile_error, r.stats) with
  | None, Some s ->
      (not s.Exec.timed_out)
      && s.Exec.paths_unknown = 0
      && s.Exec.paths_completed < config.max_paths
      && not
           (List.exists
              (fun (t : Testcase.t) ->
                match t.Testcase.error with
                | Some e -> String.equal e Exec.step_budget_error
                | None -> false)
              r.tests)
  | _ -> false

(* ----- stage 5: aggregation ----- *)

(* Sampled drafts repeat, and an exploration is a pure function of the
   compiled program (it runs under a fresh term-id scope), so a draw
   set needs one exploration per distinct program. [slots.(i)] is the
   position in [programs] (first-occurrence order) of draw [i]'s
   program, -1 for a rejected draw. The key is the program itself: a
   digest of its unshared marshalled form buckets it, structural
   equality decides. *)
let distinct_programs (programs : Ast.program option array) =
  let buckets = Hashtbl.create 64 in
  let distinct = ref [] and n = ref 0 in
  let slot_of program =
    let digest = Digest.string (Marshal.to_string program [ Marshal.No_sharing ]) in
    match List.assoc_opt program (Hashtbl.find_all buckets digest) with
    | Some slot -> slot
    | None ->
        let slot = !n in
        Hashtbl.add buckets digest (program, slot);
        distinct := program :: !distinct;
        incr n;
        slot
  in
  let slots = Array.map (Option.fold ~none:(-1) ~some:slot_of) programs in
  (slots, List.rev !distinct)

(* [aggregate] given each draw's slot. Draws of one program carry equal
   tests, so only a program's first draw contributes its tests to the
   dedup: the others would add no key. *)
let aggregate_slots ~main draws slots =
  let results = List.map fst draws in
  let programs = List.filter_map snd draws in
  let compiled = List.filter (fun r -> r.compile_error = None) results in
  let locs = List.map (fun r -> r.c_loc) compiled in
  let loc_min = List.fold_left min max_int locs in
  let loc_max = List.fold_left max 0 locs in
  let seen = Array.make (Array.fold_left max (-1) slots + 1) false in
  let unique =
    Testcase.dedup_keyed
      (List.concat
         (List.mapi
            (fun i r ->
              let slot = slots.(i) in
              if slot < 0 then r.tests
              else if seen.(slot) then []
              else begin
                seen.(slot) <- true;
                r.tests
              end)
            results))
  in
  {
    main;
    results;
    unique_tests = List.map snd unique;
    unique_keys = List.map fst unique;
    loc_min = (if locs = [] then 0 else loc_min);
    loc_max;
    programs;
    program_ids = List.filter (fun slot -> slot >= 0) (Array.to_list slots);
  }

let aggregate ~main draws =
  aggregate_slots ~main draws
    (fst (distinct_programs (Array.of_list (List.map snd draws))))

(* ----- cache keys ----- *)

let draw_key_parts ~oracle_name ~config ~prompts ~index =
  ("oracle", oracle_name)
  :: prompts
  @ [
        (* the effective seed, so a draw is shared between any two runs
           whose base_seed + index coincide — in particular between
           k-sweep prefixes *)
        ("seed", string_of_int (config.base_seed + index));
        ("temperature", Printf.sprintf "%h" config.temperature);
        ("timeout", Printf.sprintf "%h" config.timeout);
        ("max_paths", string_of_int config.max_paths);
        ("max_steps", string_of_int config.max_steps);
        ("max_solver_decisions", string_of_int config.max_solver_decisions);
        ("alphabet", String.init (List.length config.alphabet)
                       (List.nth config.alphabet));
      ("samples_per_path", string_of_int config.samples_per_path);
      (* the symbolic executor's version: bumped whenever it explores
         differently for the same inputs (2 = implied branches taken
         without a probe), so an on-disk cache written by an older
         engine misses instead of replaying its suites *)
      ("symex", "2");
    ]

let draw_key ~oracle_name ~config ~prompts ~index =
  Cache.Key.v ~stage:"draw" (draw_key_parts ~oracle_name ~config ~prompts ~index)

(* ----- the draw artifact codec ----- *)

(* version-bumped whenever the stats line changes shape: an older
   entry fails to decode and is recomputed, which is the intended
   invalidation path *)
let draw_header = "eywa-draw 3"

let artifact_to_string ((r : model_result), program) =
  let stats st =
    String.concat " " (List.map (fun (_, get) -> string_of_int (get st)) Exec.stats_columns)
  in
  Serialize.Artifact.to_string ~header:draw_header
    [
      ("index", string_of_int r.index);
      ("gen", Printf.sprintf "%h" r.gen_seconds);
      ("sym", Printf.sprintf "%h" r.symex_seconds);
      ("loc", string_of_int r.c_loc);
      ("err", Serialize.Artifact.quote_opt r.compile_error);
      ("stats", Option.fold ~none:"-" ~some:stats r.stats);
      ("src", Serialize.quote r.c_source);
      ( "prog",
        Serialize.Artifact.quote_opt (Option.map (Pretty.program ~headers:false) program)
      );
    ]
    r.tests

let artifact_of_string g ~main s =
  let module A = Serialize.Artifact in
  let ( let* ) = Result.bind in
  let* a = A.reader ~header:draw_header s in
  let* index = A.int a "index" in
  let* gen_seconds = A.float a "gen" in
  let* symex_seconds = A.float a "sym" in
  let* c_loc = A.int a "loc" in
  let* compile_error = A.quoted_opt a "err" in
  let* stats_line = A.field a "stats" in
  let* stats =
    if stats_line = "-" then Ok None
    else
      match
        Exec.stats_of_columns
          (List.map int_of_string (String.split_on_char ' ' stats_line))
      with
      | Some st -> Ok (Some st)
      | None | (exception Failure _) ->
          Error (Printf.sprintf "bad stats line %S" stats_line)
  in
  let* c_source = Result.bind (A.field a "src") Serialize.unquote in
  let* program_text = A.quoted_opt a "prog" in
  let* program =
    match program_text with
    | None -> Ok None
    | Some text -> (
        match Parser.parse_result text with
        | Error e -> Error ("stored program: " ^ e)
        | Ok parsed ->
            (* rebuild through the same pure construction as the cold
               path: the parser drops doc comments, Harness.build
               restores them along with everything else *)
            let funcs =
              List.filter
                (fun (f : Ast.func) -> f.fname <> Harness.entry_name)
                parsed.Ast.funcs
            in
            Ok (Some (Harness.build g ~main ~funcs)))
  in
  let* tests = A.tests a in
  Ok
    ( { index; c_source; c_loc; compile_error; tests; stats; gen_seconds;
        symex_seconds },
      program )

(* ----- the composed engine ----- *)

(* Replay one draw's stage events at the merge point. Workers stay
   pure (no sink calls off the orchestrating domain), and a cache hit
   replays exactly what the miss computed, so the event log is a
   deterministic function of the inputs. *)
let emit_draw_events sink (r : model_result) =
  sink (Instrument.Draw_started { index = r.index });
  (match r.compile_error with
  | Some tagged ->
      let stage, message =
        match String.index_opt tagged ':' with
        | Some i ->
            ( String.sub tagged 0 i,
              String.trim
                (String.sub tagged (i + 1) (String.length tagged - i - 1)) )
        | None -> ("compile", tagged)
      in
      sink (Instrument.Compile_rejected { index = r.index; stage; message })
  | None -> ());
  Option.iter
    (fun stats -> sink (Instrument.Symex_done { index = r.index; stats }))
    r.stats;
  sink
    (Instrument.Draw_finished
       {
         index = r.index;
         tests = List.length r.tests;
         gen_seconds = r.gen_seconds;
         symex_seconds = r.symex_seconds;
       })

(* A draw of [shared_fronts] part way through the synthesis order: its
   modules' texts and functions so far (latest first), the seconds spent
   on it, and the parse error that ended it, if any. *)
type drafting = {
  texts : string list;
  fns : Ast.func list list;
  seconds : float;
  failed : string option;
}

(* The fronts of [indices] (ascending), as [front] gives them, with each
   distinct module text parsed once and each distinct draft compiled
   once: sampled drafts repeat, and parsing, line counting and
   compiling are pure functions of the text. Module by module, the
   oracle runs per live draw on the pool, then the module's new texts
   are parsed on the pool; a draw whose text does not parse stops, so
   it prompts no later module, as in [generate]. A draw's [gen_seconds]
   is its own oracle time plus the parse time of each text it was the
   first (lowest index) to draw. *)
let shared_fronts pool ~oracle ~config g ~main ~order indices =
  let timed f x =
    let start = now () in
    let y = f x in
    (y, now () -. start)
  in
  let indices = Array.of_list indices in
  let draws =
    Array.map (fun _ -> { texts = []; fns = []; seconds = 0.0; failed = None }) indices
  in
  let step m =
    let live =
      List.filter
        (fun j -> draws.(j).failed = None)
        (List.init (Array.length draws) Fun.id)
    in
    let drawn =
      Pool.map pool
        (fun j -> timed (module_draft ~oracle ~config g ~index:indices.(j)) m)
        live
    in
    (* each new text's parse, and the first draw of it, which pays for it *)
    let parses = Hashtbl.create 16 and fresh = ref [] in
    List.iter2
      (fun j (text, _) ->
        if not (Hashtbl.mem parses text) then begin
          Hashtbl.add parses text j;
          fresh := text :: !fresh
        end)
      live drawn;
    let fresh = List.rev !fresh in
    let parsed = Hashtbl.create 16 in
    List.iter2 (Hashtbl.add parsed) fresh
      (Pool.map pool (timed (parse_module m)) fresh);
    List.iter2
      (fun j (text, oracle_seconds) ->
        let d = draws.(j) in
        let result, parse_seconds = Hashtbl.find parsed text in
        let seconds =
          d.seconds +. oracle_seconds
          +. if Hashtbl.find parses text = j then parse_seconds else 0.0
        in
        draws.(j) <-
          (match result with
          | Error e -> { d with seconds; failed = Some e }
          | Ok f -> { d with texts = text :: d.texts; fns = f :: d.fns; seconds }))
      live drawn
  in
  List.iter step order;
  (* the distinct drafts that parsed, keyed by their texts *)
  let ids = Hashtbl.create 64 and distinct = ref [] in
  let id_of d =
    match Hashtbl.find_opt ids d.texts with
    | Some id -> id
    | None ->
        let id = Hashtbl.length ids in
        Hashtbl.add ids d.texts id;
        distinct := d :: !distinct;
        id
  in
  let draft_ids = Array.map (fun d -> if d.failed = None then id_of d else -1) draws in
  let built =
    Array.of_list
      (Pool.map pool
         (fun d ->
           let source, funcs = assemble (List.rev d.texts) (List.rev d.fns) in
           build g ~main (Ok { gen_index = 0; source; funcs }))
         (List.rev !distinct))
  in
  List.init (Array.length draws) (fun j ->
      let d = draws.(j) in
      let r, program =
        match d.failed with
        | Some e -> build g ~main (Error e)
        | None -> built.(draft_ids.(j))
      in
      ({ r with index = indices.(j); gen_seconds = d.seconds }, program))

(* Explore each distinct program some draw of [missing] runs, and give
   every such draw its program's exploration; [draws] holds every draw,
   the misses not yet explored. The first miss of a program keeps the
   measured symex wall time; its repeats report 0.0, since this process
   spent no time exploring them. Also returns the probes the workers'
   refutation tables answered. *)
let explore_missing pool ~config g ~main draws missing slots programs =
  let programs = Array.of_list programs in
  let wanted =
    List.sort_uniq compare
      (List.filter (fun slot -> slot >= 0) (List.map (Array.get slots) missing))
  in
  let explorations, pool_stats =
    Pool.map_stats pool
      (fun slot ->
        let before = Exec.refutations_reused () in
        let e = explore ~config g ~main programs.(slot) in
        (e, Exec.refutations_reused () - before))
      wanted
  in
  let explored = Array.make (Array.length programs) None in
  List.iter2 (fun slot (e, _) -> explored.(slot) <- Some e) wanted explorations;
  List.iter
    (fun i ->
      let slot = slots.(i) in
      if slot >= 0 then begin
        let tests, stats, symex_seconds = Option.get explored.(slot) in
        explored.(slot) <- Some (tests, stats, 0.0);
        let r, program = draws.(i) in
        draws.(i) <- (with_exploration r (tests, stats, symex_seconds), program)
      end)
    missing;
  (pool_stats, List.fold_left (fun n (_, reused) -> n + reused) 0 explorations)

let run ?cache ?(sink = Instrument.null) ?(config = default_config) ?jobs
    ~oracle g ~main =
  match main with
  | Emodule.Regex _ | Emodule.Custom _ ->
      Error "Pipeline.run: main must be a Func module"
  | Emodule.Func main_f -> (
      match Graph.synthesis_order g ~main with
      | Error e -> Error e
      | Ok order ->
          let prompts = prompt_parts g ~order ~main:main_f in
          let key_of index =
            draw_key ~oracle_name:oracle.Oracle.name ~config ~prompts ~index
          in
          (* probe the cache sequentially, in index order *)
          let cached =
            Array.init config.k (fun index ->
                Option.bind cache (fun c ->
                    Cache.lookup ~sink c (key_of index)
                      ~decode:(artifact_of_string g ~main:main_f)))
          in
          let missing =
            List.filter (fun i -> Option.is_none cached.(i)) (List.init config.k Fun.id)
          in
          (* the misses are independent; fan them out and merge by
             model index, so the result is identical at any [jobs].
             Explorations share their domain's intern scope, and with
             it its refutation table: a worker's lives as long as the
             pool, the calling domain's (which explores when the pool
             runs inline) as long as this scope. *)
          let draws, slots, (pool_stats, refutations_reused) =
            Eywa_solver.Term.with_fresh_ids @@ fun () ->
            Pool.with_pool ~jobs:(Pool.jobs jobs) (fun pool ->
                let fronts =
                  shared_fronts pool ~oracle ~config g ~main:main_f ~order missing
                in
                let draws = Array.copy cached in
                List.iter2 (fun i front -> draws.(i) <- Some front) missing fronts;
                let draws = Array.map Option.get draws in
                let slots, programs = distinct_programs (Array.map snd draws) in
                let pool_stats =
                  explore_missing pool ~config g ~main:main_f draws missing slots
                    programs
                in
                (draws, slots, pool_stats))
          in
          sink
            (Instrument.pool_merged ~refutations_reused ~label:"draw" ~tasks:config.k
               pool_stats);
          Option.iter
            (fun c ->
              List.iter
                (fun i -> Cache.store c (key_of i) (artifact_to_string draws.(i)))
                missing)
            cache;
          Array.iter (fun (r, _) -> emit_draw_events sink r) draws;
          let result = aggregate_slots ~main:main_f (Array.to_list draws) slots in
          sink
            (Instrument.Suite_aggregated
               {
                 draws = config.k;
                 unique_tests = List.length result.unique_tests;
               });
          Ok result)
