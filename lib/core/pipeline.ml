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

(* Obtain the implementation of one module for model index [i]:
   prompt the oracle for Func modules, parse Custom sources directly. *)
let generate_module oracle config g index m :
    (Ast.func list * string, string) result =
  match m with
  | Emodule.Func f -> (
      let prompt = Prompt.for_module g f in
      let completion =
        oracle.Oracle.complete
          {
            Oracle.system = prompt.Prompt.system;
            user = prompt.Prompt.user;
            temperature = config.temperature;
            seed = config.base_seed + index;
          }
      in
      match Parser.parse_result completion with
      | Error msg -> Error (Printf.sprintf "module %s: %s" f.name msg)
      | Ok parsed -> (
          match Ast.find_func parsed f.name with
          | None ->
              Error
                (Printf.sprintf "module %s: completion does not define %s" f.name
                   f.name)
          | Some fn -> Ok ([ fn ], completion)))
  | Emodule.Custom c -> (
      match Parser.parse_result c.source with
      | Error msg -> Error (Printf.sprintf "custom module %s: %s" c.cname msg)
      | Ok parsed -> Ok (parsed.Ast.funcs, c.source))
  | Emodule.Regex _ -> Ok ([], "")

let generate ~oracle ~config g ~order ~index =
  let rec gen acc_funcs acc_src = function
    | [] ->
        Ok
          {
            gen_index = index;
            source = String.concat "\n\n" (List.rev acc_src);
            funcs = List.rev acc_funcs;
          }
    | m :: rest -> (
        match generate_module oracle config g index m with
        | Error e -> Error e
        | Ok (fns, src) ->
            gen (List.rev_append fns acc_funcs)
              (if src = "" then acc_src else src :: acc_src)
              rest)
  in
  gen [] [] order

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

(* One test per (path, sample): re-solving the path condition under
   different value rotations yields several concrete witnesses of the
   same path, the way Klee's test generation covers bounded input
   spaces far more densely than one-per-path (cf. the Table 2 counts).
   Only the value order depends on the rotation, so the path is
   prepared once, from the variables its conjuncts carry, for all its
   sample solves. *)
let path_to_tests config (path : Exec.path) inputs : Testcase.t list =
  let module Solve = Eywa_solver.Solve in
  let samples = max 1 config.samples_per_path in
  let prepared =
    lazy (Solve.prepare (List.combine path.Exec.pc path.Exec.pc_vars))
  in
  List.init samples (fun s ->
      let model =
        if s = 0 then path.Exec.model
        else
          match
            fst
              (Solve.search ~max_decisions:config.max_solver_decisions
                 ~rotate:s (Lazy.force prepared))
          with
          | Solve.Sat m -> m
          | Solve.Unsat | Solve.Unknown -> path.Exec.model
      in
      path_to_test ~rotate:s ~model inputs path)

let tests_of_paths ~config ~inputs paths =
  Testcase.dedup (List.concat_map (fun p -> path_to_tests config p inputs) paths)

(* ----- stages 1-2 composed: a draw's front ----- *)

let front ~oracle ~config g ~main ~order index : model_result * Ast.program option =
  let gen_start = now () in
  let draw ?(c_source = "") ?(c_loc = 0) ?compile_error gen_seconds =
    { index; c_source; c_loc; compile_error; tests = []; stats = None; gen_seconds;
      symex_seconds = 0.0 }
  in
  match generate ~oracle ~config g ~order ~index with
  | Error e ->
      (* stage-tagged so parallel failure logs are attributable: this
         branch covers oracle completions that do not parse or do not
         define the requested function *)
      (draw ~compile_error:("oracle: " ^ e) (now () -. gen_start), None)
  | Ok gen -> (
      let gen_seconds = now () -. gen_start in
      let c_loc =
        List.fold_left (fun acc f -> acc + Pretty.loc (Pretty.func f)) 0 gen.funcs
      in
      match compile g ~main gen with
      | Error e ->
          ( draw ~c_source:gen.source ~c_loc ~compile_error:("typecheck: " ^ e)
              gen_seconds,
            None )
      | Ok program -> (draw ~c_source:gen.source ~c_loc gen_seconds, Some program))

(* ----- stages 3-4 composed: a program's exploration ----- *)

let explore ~config g ~main program =
  (* fresh atom ids per exploration — scoped to this job, so parallel
     draws on a pool never share a counter and identical programs yield
     identical paths, rotations and tests (tau = 0 determinism) *)
  Eywa_solver.Term.with_fresh_ids @@ fun () ->
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

(* ----- stage 5: aggregation ----- *)

let aggregate ~main draws =
  let results = List.map fst draws in
  let programs = List.filter_map snd draws in
  let compiled = List.filter (fun r -> r.compile_error = None) results in
  let locs = List.map (fun r -> r.c_loc) compiled in
  let loc_min = List.fold_left min max_int locs in
  let loc_max = List.fold_left max 0 locs in
  let unique =
    Testcase.dedup_keyed (List.concat_map (fun r -> r.tests) results)
  in
  {
    main;
    results;
    unique_tests = List.map snd unique;
    unique_keys = List.map fst unique;
    loc_min = (if locs = [] then 0 else loc_min);
    loc_max;
    programs;
  }

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

let artifact_to_string ((r : model_result), program) =
  let buf = Buffer.create 2048 in
  let line fmt =
    Printf.ksprintf
      (fun s ->
        Buffer.add_string buf s;
        Buffer.add_char buf '\n')
      fmt
  in
  line "eywa-draw 3";
  line "index %d" r.index;
  line "gen %h" r.gen_seconds;
  line "sym %h" r.symex_seconds;
  line "loc %d" r.c_loc;
  (match r.compile_error with
  | None -> line "err -"
  | Some e -> line "err %s" (Serialize.quote e));
  (match r.stats with
  | None -> line "stats -"
  | Some st ->
      let column (_, get) = string_of_int (get st) in
      line "stats %s" (String.concat " " (List.map column Exec.stats_columns)));
  line "src %s" (Serialize.quote r.c_source);
  (match program with
  | None -> line "prog -"
  | Some p -> line "prog %s" (Serialize.quote (Pretty.program ~headers:false p)));
  line "tests %d" (List.length r.tests);
  List.iter (fun t -> line "%s" (Serialize.test_to_line t)) r.tests;
  Buffer.contents buf

let artifact_of_string g ~main s =
  let ( let* ) = Result.bind in
  let lines = ref (String.split_on_char '\n' s) in
  let next () =
    match !lines with
    | [] -> Error "truncated artifact"
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
    | None -> Error (Printf.sprintf "bad %s count %S" name v)
  in
  let float_field name =
    let* v = field name in
    match float_of_string_opt v with
    | Some f -> Ok f
    | None -> Error (Printf.sprintf "bad %s value %S" name v)
  in
  let opt_quoted name =
    let* v = field name in
    if v = "-" then Ok None
    else
      let* decoded = Serialize.unquote v in
      Ok (Some decoded)
  in
  let* header = next () in
  (* version-bumped whenever the stats line changes shape: an older
     entry fails to parse and is recomputed, which is the intended
     invalidation path *)
  if header <> "eywa-draw 3" then Error "not a draw artifact"
  else
    let* index = int_field "index" in
    let* gen_seconds = float_field "gen" in
    let* symex_seconds = float_field "sym" in
    let* c_loc = int_field "loc" in
    let* compile_error = opt_quoted "err" in
    let* stats_line = field "stats" in
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
    let* src_quoted = field "src" in
    let* c_source = Serialize.unquote src_quoted in
    let* program_text = opt_quoted "prog" in
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
    let* n_tests = int_field "tests" in
    let rec read_tests acc = function
      | 0 -> Ok (List.rev acc)
      | n ->
          let* l = next () in
          let* t = Serialize.test_of_line l in
          read_tests (t :: acc) (n - 1)
    in
    let* tests = read_tests [] n_tests in
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

(* Sampled drafts repeat, and an exploration is a pure function of the
   compiled program (it runs under a fresh term-id scope), so [run]
   explores each distinct program once. [slots.(i)] is the position in
   [programs] (first-occurrence order) of front [i]'s program, -1 for a
   rejected draw. The key is the program itself: a digest of its
   unshared marshalled form buckets it, structural equality decides. *)
let distinct_programs fronts =
  let buckets = Hashtbl.create 64 in
  let programs = ref [] and n = ref 0 in
  let slot_of program =
    let digest = Digest.string (Marshal.to_string program [ Marshal.No_sharing ]) in
    match List.assoc_opt program (Hashtbl.find_all buckets digest) with
    | Some slot -> slot
    | None ->
        let slot = !n in
        Hashtbl.add buckets digest (program, slot);
        programs := program :: !programs;
        incr n;
        slot
  in
  let slots = Array.make (Array.length fronts) (-1) in
  Array.iteri
    (fun i (_, program) -> Option.iter (fun p -> slots.(i) <- slot_of p) program)
    fronts;
  (slots, List.rev !programs)

(* Give every front its program's exploration. The first draw of a
   program keeps the measured symex wall time; its duplicates report
   0.0, since this process spent no time exploring them. *)
let share_explorations fronts slots explorations =
  let claimed = Array.make (Array.length explorations) false in
  Array.init (Array.length fronts) (fun i ->
      let r, program = fronts.(i) in
      let slot = slots.(i) in
      if slot < 0 then (r, program)
      else
        let tests, stats, symex_seconds = explorations.(slot) in
        let symex_seconds = if claimed.(slot) then 0.0 else symex_seconds in
        claimed.(slot) <- true;
        (with_exploration r (tests, stats, symex_seconds), program))

let run ?cache ?(sink = Instrument.null) ?(config = default_config) ?jobs
    ~oracle g ~main =
  match main with
  | Emodule.Regex _ | Emodule.Custom _ ->
      Error "Pipeline.run: main must be a Func module"
  | Emodule.Func main_f -> (
      match Graph.synthesis_order g ~main with
      | Error e -> Error e
      | Ok order ->
          let jobs =
            match jobs with Some j -> max 1 j | None -> Pool.default_jobs ()
          in
          let prompts = prompt_parts g ~order ~main:main_f in
          let key_of index =
            draw_key ~oracle_name:oracle.Oracle.name ~config ~prompts ~index
          in
          (* probe the cache sequentially, in index order *)
          let draws =
            Array.init config.k (fun index ->
                match cache with
                | None -> None
                | Some c -> (
                    match Cache.find ~sink c (key_of index) with
                    | None -> None
                    | Some payload -> (
                        match artifact_of_string g ~main:main_f payload with
                        | Ok draw -> Some draw
                        | Error _ ->
                            (* corrupt entry: fall back to computing *)
                            None)))
          in
          let missing =
            List.filter (fun i -> Option.is_none draws.(i)) (List.init config.k Fun.id)
          in
          (* the misses are independent; fan them out and merge by
             model index, so the result is identical at any [jobs] *)
          let computed, pool_stats =
            Pool.with_pool ~jobs (fun pool ->
                let fronts =
                  Pool.map pool (front ~oracle ~config g ~main:main_f ~order) missing
                  |> Array.of_list
                in
                let slots, programs = distinct_programs fronts in
                let explorations, pool_stats =
                  Pool.map_stats pool (explore ~config g ~main:main_f) programs
                in
                ( share_explorations fronts slots (Array.of_list explorations),
                  pool_stats ))
          in
          sink
            (Instrument.Pool_merged
               {
                 label = "draw";
                 tasks = config.k;
                 computed = pool_stats.Pool.tasks;
                 jobs = pool_stats.Pool.jobs;
                 per_worker = pool_stats.Pool.per_worker;
                 queue_wait_ticks = pool_stats.Pool.queue_wait_ticks;
               });
          List.iteri
            (fun pos i ->
              let draw = computed.(pos) in
              draws.(i) <- Some draw;
              Option.iter
                (fun c -> Cache.store c (key_of i) (artifact_to_string draw))
                cache)
            missing;
          let draws = List.map Option.get (Array.to_list draws) in
          List.iter (fun (r, _) -> emit_draw_events sink r) draws;
          let result = aggregate ~main:main_f draws in
          sink
            (Instrument.Suite_aggregated
               {
                 draws = List.length draws;
                 unique_tests = List.length result.unique_tests;
               });
          Ok result)
