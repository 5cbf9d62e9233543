module Term = Eywa_solver.Term
module Solve = Eywa_solver.Solve
module Regex = Eywa_symex.Regex
module Sv = Eywa_symex.Sv
module Exec = Eywa_symex.Exec
module Parser = Eywa_minic.Parser
module Value = Eywa_minic.Value
module Interp = Eywa_minic.Interp

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let parse_ok src =
  match Parser.parse_result src with
  | Ok p ->
      Eywa_minic.Typecheck.check_exn p;
      p
  | Error m -> Alcotest.failf "parse failed: %s" m

(* ----- regex: parsing and concrete matching ----- *)

let m pat s = Regex.matches_pattern pat s

let test_regex_literals () =
  check "abc matches" true (m "abc" "abc");
  check "abc vs abd" false (m "abc" "abd");
  check "empty pattern, empty string" true (m "" "");
  check "empty pattern, non-empty" false (m "" "a")

let test_regex_star () =
  check "a* empty" true (m "a*" "");
  check "a* many" true (m "a*" "aaaa");
  check "a* wrong char" false (m "a*" "ab");
  check "(ab)* pairs" true (m "(ab)*" "abab");
  check "(ab)* odd" false (m "(ab)*" "aba")

let test_regex_alt_plus_opt () =
  check "a|b left" true (m "a|b" "a");
  check "a|b right" true (m "a|b" "b");
  check "a|b neither" false (m "a|b" "c");
  check "a+ one" true (m "a+" "a");
  check "a+ none" false (m "a+" "");
  check "ab? without" true (m "ab?" "a");
  check "ab? with" true (m "ab?" "ab")

let test_regex_class_and_any () =
  check "[a-c] in range" true (m "[a-c]" "b");
  check "[a-c] out of range" false (m "[a-c]" "d");
  check "[a-c*] star member" true (m "[a-c*]" "*");
  check ". matches" true (m "." "x");
  check ". not empty" false (m "." "");
  check ". not nul" false (m "." "\000")

let test_regex_domain_pattern () =
  let pat = {|[a*](\.[a*])*|} in
  check "single label" true (m pat "a");
  check "two labels" true (m pat "a.a");
  check "star label" true (m pat "*.a");
  check "trailing dot invalid" false (m pat "a.");
  check "leading dot invalid" false (m pat ".a");
  check "empty invalid" false (m pat "");
  check "double dot invalid" false (m pat "a..a")

let test_regex_parse_errors () =
  let fails pat =
    match Regex.parse pat with
    | exception Regex.Parse_error _ -> true
    | _ -> false
  in
  check "unbalanced paren" true (fails "(ab");
  check "leading star" true (fails "*a");
  check "unterminated class" true (fails "[ab");
  check "trailing backslash" true (fails "ab\\")

let test_regex_alphabet () =
  check "alphabet of class" true
    (Regex.alphabet_of (Regex.parse "[a-c]x") = [ 'a'; 'b'; 'c'; 'x' ])

(* symbolic compile_term vs concrete matcher on concrete cells *)
let cells_of_string bound s =
  Array.init (bound + 1) (fun i ->
      if i < String.length s then Term.const (Char.code s.[i]) else Term.const 0)

let test_compile_term_concrete () =
  let patterns = [ "a*"; "a|b"; {|[a*](\.[a*])*|}; "(ab)*"; "a+b?" ] in
  let strings = [ ""; "a"; "b"; "ab"; "a.a"; "aaa"; "abab"; "*.a"; "a." ] in
  List.iter
    (fun pat ->
      let re = Regex.parse pat in
      List.iter
        (fun s ->
          let t = Regex.compile_term re (cells_of_string 6 s) in
          let expected = Regex.matches re s in
          match t with
          | Term.Const n -> check (pat ^ " vs " ^ s) expected (n <> 0)
          | _ -> Alcotest.failf "term not constant for concrete cells")
        strings)
    patterns

(* property: the symbolic term solved for symbolic cells only admits
   matching strings *)
let prop_compile_term_sound =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:50
       ~name:"solver models of compile_term are strings the regex matches"
       (QCheck2.Gen.oneofl [ "a*"; {|[a*](\.[a*])*|}; "a(b|c)*"; "[ab]+" ])
       (fun pat ->
         let re = Regex.parse pat in
         let alphabet = [| 0; Char.code 'a'; Char.code 'b'; Char.code 'c';
                           Char.code '.'; Char.code '*' |] in
         let sv = Sv.symbolic_string ~alphabet 4 in
         let cells = match sv with Sv.Sstring c -> c | _ -> assert false in
         let t = Regex.compile_term re cells in
         match Solve.solve [ t ] with
         | Solve.Sat model ->
             let s = Value.cstring (Sv.concretize model sv) in
             Regex.matches re s
         | Solve.Unsat ->
             (* the pattern admits no string over this alphabet/bound *)
             not (Regex.matches re "")
         | Solve.Unknown -> true))

(* ----- symbolic values ----- *)

let test_sv_concretize () =
  let alphabet = [| 0; Char.code 'a'; Char.code 'b' |] in
  let s = Sv.symbolic_string ~alphabet ~name:"s" 3 in
  let atoms = Sv.atoms s in
  check_int "three atoms (NUL cell pinned)" 3 (List.length atoms);
  let model =
    Array.make (1 + List.fold_left (fun n v -> max n v.Term.vid) 0 atoms)
      Solve.unassigned
  in
  List.iteri (fun i v -> model.(v.Term.vid) <-
                 (if i < 2 then Char.code 'a' else 0)) atoms;
  let v = Sv.concretize model s in
  Alcotest.(check string) "aa" "aa" (Value.cstring v)

let test_sv_of_value_roundtrip () =
  let v =
    Value.Vstruct
      ("P", [ ("x", Value.Vint 3); ("s", Value.of_cstring "hi");
              ("a", Value.Varray [| Value.Vbool true; Value.Vbool false |]) ])
  in
  let sv = Sv.of_value v in
  check "no atoms in embedded concrete value" true (Sv.atoms sv = []);
  check "concretizes back" true (Value.equal v (Sv.concretize [||] sv))

(* ----- executor ----- *)

let sym_int ?(width = 4) name =
  Sv.fresh_scalar ~name (Eywa_minic.Ast.Tint width)
    ~domain:(Array.init (1 lsl width) (fun i -> i))

let run_paths ?config ?natives src entry args assumes =
  let p = parse_ok src in
  Exec.run ?config ?natives p ~entry ~args ~assumes

let test_exec_branch_coverage () =
  let paths, stats =
    run_paths "int f(uint8_t x) { if (x > 7) { return 1; } return 0; }" "f"
      [ sym_int "x" ] []
  in
  check_int "two paths" 2 (List.length paths);
  check_int "completed" 2 stats.Exec.paths_completed;
  (* each path's model satisfies its path condition *)
  List.iter
    (fun (p : Exec.path) -> check "model satisfies pc" true (Solve.check p.model p.pc))
    paths

let test_exec_nested_branches () =
  let paths, _ =
    run_paths
      "int f(uint8_t x) { if (x > 7) { if (x > 11) { return 2; } return 1; } return 0; }"
      "f" [ sym_int "x" ] []
  in
  check_int "three paths" 3 (List.length paths);
  let rets =
    List.map (fun (p : Exec.path) ->
        Value.to_int (Sv.concretize p.model p.ret))
      paths
    |> List.sort_uniq compare
  in
  check "all outcomes reached" true (rets = [ 0; 1; 2 ])

let test_exec_assume () =
  let x = sym_int "x" in
  let assume = Term.gt (Sv.scalar_term x) (Term.const 11) in
  let paths, _ =
    run_paths "int f(uint8_t x) { if (x > 7) { return 1; } return 0; }" "f" [ x ]
      [ assume ]
  in
  check_int "only the high branch is feasible" 1 (List.length paths)

let test_exec_strlen_forks () =
  let alphabet = [| 0; Char.code 'a' |] in
  let s = Sv.symbolic_string ~alphabet ~name:"s" 3 in
  let paths, _ = run_paths "int f(char* s) { return strlen(s); }" "f" [ s ] [] in
  (* lengths 0..3 *)
  check_int "one path per length" 4 (List.length paths);
  let lens =
    List.map (fun (p : Exec.path) -> Value.to_int (Sv.concretize p.model p.ret)) paths
    |> List.sort_uniq compare
  in
  check "lengths 0..3" true (lens = [ 0; 1; 2; 3 ])

let test_exec_strcmp_paths () =
  let alphabet = [| 0; Char.code 'a'; Char.code 'b' |] in
  let s = Sv.symbolic_string ~alphabet ~name:"s" 2 in
  let paths, _ =
    run_paths "bool f(char* s) { return strcmp(s, \"ab\") == 0; }" "f" [ s ] []
  in
  let eq_paths =
    List.filter
      (fun (p : Exec.path) -> Value.truthy (Sv.concretize p.model p.ret))
      paths
  in
  check_int "exactly one equality class" 1 (List.length eq_paths);
  let s_val =
    Value.cstring (Sv.concretize (List.hd eq_paths).model s)
  in
  Alcotest.(check string) "solved to ab" "ab" s_val

let test_exec_loop_unrolling () =
  let paths, _ =
    run_paths
      "int f(uint8_t n) { int acc = 0; for (uint8_t i = 0; i < n; i++) { acc += 1; } return acc; }"
      "f"
      [ sym_int ~width:2 "n" ] []
  in
  (* n in 0..3 -> four distinct iteration counts *)
  check_int "path per loop count" 4 (List.length paths)

let test_exec_error_paths () =
  let paths, _ =
    run_paths "int f(uint8_t x) { return 10 / x; }" "f" [ sym_int "x" ] []
  in
  let errors = List.filter (fun (p : Exec.path) -> p.error <> None) paths in
  check_int "division-by-zero path reported" 1 (List.length errors)

let test_exec_symbolic_index () =
  let paths, _ =
    run_paths "char f(char* s, uint8_t i) { return s[i]; }" "f"
      [ Sv.concrete_string "ab"; sym_int ~width:2 "i" ] []
  in
  (* buffer size 3: in-bounds 0,1,2 plus one out-of-bounds error path *)
  let ok = List.filter (fun (p : Exec.path) -> p.error = None) paths in
  let err = List.filter (fun (p : Exec.path) -> p.error <> None) paths in
  check_int "three in-bounds cells" 3 (List.length ok);
  check_int "one out-of-bounds path" 1 (List.length err)

let test_exec_budget_max_paths () =
  let config = { Exec.default_config with max_paths = 2 } in
  let paths, stats =
    run_paths ~config
      "int f(uint8_t x) { if (x > 1) { if (x > 2) { if (x > 3) { return 3; } return 2; } return 1; } return 0; }"
      "f" [ sym_int "x" ] []
  in
  check "stopped at cap" true (List.length paths <= 2);
  check "completed count matches" true (stats.Exec.paths_completed <= 2)

(* A solver that gives up is not a proof of infeasibility: with no
   decisions allowed every probe comes back [Unknown], and the executor
   must count those rather than report the branches pruned. *)
let test_exec_unknown_not_pruned () =
  let config = { Exec.default_config with max_solver_decisions = 0 } in
  let paths, stats =
    run_paths ~config "int f(uint8_t x) { if (x > 7) { return 1; } return 0; }"
      "f" [ sym_int "x" ] []
  in
  check_int "no path survives" 0 (List.length paths);
  check "unknown solves counted" true (stats.Exec.paths_unknown > 0);
  check_int "nothing counted as pruned" 0 stats.Exec.paths_pruned

let test_exec_step_budget () =
  let config = { Exec.default_config with max_steps = 50 } in
  let paths, _ =
    run_paths ~config "int f() { int x = 0; while (true) { x += 1; } return x; }"
      "f" [] []
  in
  check "step-budget error path" true
    (List.exists (fun (p : Exec.path) -> p.error <> None) paths)

let test_exec_call_and_return () =
  let src =
    "int helper(int a) { if (a > 3) { return 10; } return 20; }\n\
     int f(uint8_t x) { return helper(x) + 1; }"
  in
  let paths, _ = run_paths src "f" [ sym_int "x" ] [] in
  check_int "callee forks propagate" 2 (List.length paths);
  let rets =
    List.map (fun (p : Exec.path) -> Value.to_int (Sv.concretize p.model p.ret)) paths
    |> List.sort_uniq compare
  in
  check "11 and 21" true (rets = [ 11; 21 ])

let test_exec_native () =
  let natives =
    [ ("oracle_fn", fun _ -> Sv.Sscalar (Eywa_minic.Ast.Tbool, Term.tt)) ]
  in
  let paths, _ =
    run_paths ~natives "bool oracle_fn(char* s);\nbool f(char* s) { return oracle_fn(s); }"
      "f" [ Sv.concrete_string "x" ] []
  in
  check_int "one path" 1 (List.length paths);
  check "native result" true
    (Value.truthy (Sv.concretize (List.hd paths).model (List.hd paths).ret))

(* soundness: replaying each symbolic path's model concretely
   reproduces the symbolic return value *)
let test_exec_concolic_agreement () =
  let src =
    "int classify(uint8_t x, uint8_t y) {\n\
    \  if (x > y) { return 1; }\n\
    \  if (x == y) { if (x > 7) { return 2; } return 3; }\n\
    \  if (y - x > 4) { return 4; }\n\
    \  return 5;\n\
     }"
  in
  let p = parse_ok src in
  let x = sym_int "x" and y = sym_int "y" in
  let paths, _ = Exec.run p ~entry:"classify" ~args:[ x; y ] ~assumes:[] in
  check "several paths" true (List.length paths >= 4);
  List.iter
    (fun (path : Exec.path) ->
      let cx = Sv.concretize path.model x and cy = Sv.concretize path.model y in
      match Interp.run p "classify" [ cx; cy ] with
      | Ok v ->
          check "symbolic = concrete" true
            (Value.equal v (Sv.concretize path.model path.ret))
      | Error e -> Alcotest.failf "concrete replay failed: %s" (Interp.error_to_string e))
    paths

(* ----- implied branches: a guard the pc already holds ----- *)

(* conjunct ids of a pc have no repeats *)
let distinct_conjuncts pc =
  let ids = List.map Term.intern_id pc in
  List.length (List.sort_uniq compare ids) = List.length ids

let test_exec_loop_guard_once () =
  let run n =
    run_paths
      (Printf.sprintf
         "int f(uint8_t x) {\n\
         \  int c = 0;\n\
         \  for (int i = 0; i < %d; i++) { if (x > 7) { c += 1; } }\n\
         \  return c;\n\
          }"
         n)
      "f" [ sym_int "x" ] []
  in
  let calls =
    List.map
      (fun n ->
        let paths, stats = run n in
        check_int (Printf.sprintf "N=%d: taken and skipped" n) 2
          (List.length paths);
        List.iter
          (fun (p : Exec.path) ->
            check_int (Printf.sprintf "N=%d: the guard is in the pc once" n) 1
              (List.length p.pc);
            check "model satisfies pc" true (Solve.check p.model p.pc))
          paths;
        let rets =
          List.map
            (fun (p : Exec.path) -> Value.to_int (Sv.concretize p.model p.ret))
            paths
          |> List.sort compare
        in
        check (Printf.sprintf "N=%d: 0 or N iterations counted" n) true
          (rets = [ 0; n ]);
        stats.Exec.solver_calls)
      [ 1; 4; 16 ]
  in
  (* two probes at the first test, one completion solve per path *)
  check "solver calls do not grow with N" true (calls = [ 4; 4; 4 ])

let test_exec_implied_negation () =
  let run src arg =
    let paths, stats = run_paths src "f" [ arg ] [] in
    List.iter
      (fun (p : Exec.path) ->
        check "pc without repeats" true (distinct_conjuncts p.pc))
      paths;
    ( List.map
        (fun (p : Exec.path) -> Value.to_int (Sv.concretize p.model p.ret))
        paths
      |> List.sort compare,
      stats.Exec.solver_calls )
  in
  (* [!(x > 7)] is [Term.not_] of the guard [x > 7] *)
  let rets, calls =
    run
      "int f(uint8_t x) {\n\
      \  if (x > 7) { if (!(x > 7)) { return 1; } return 2; }\n\
      \  if (!(x > 7)) { if (x > 7) { return 3; } return 4; }\n\
      \  return 5;\n\
       }"
      (sym_int "x")
  in
  check "negated guard takes the implied side" true (rets = [ 2; 4 ]);
  check_int "only the first test probes" 4 calls;
  (* [!b] is [Not (Var b)], which [Term.not_] does not fold back to [b] *)
  let b =
    Sv.fresh_scalar ~name:"b" Eywa_minic.Ast.Tbool ~domain:[| 0; 1 |]
  in
  let rets, calls =
    run
      "int f(bool b) {\n\
      \  if (b) { if (!b) { return 1; } return 2; }\n\
      \  if (!b) { if (b) { return 3; } return 4; }\n\
      \  return 5;\n\
       }"
      b
  in
  check "Not (Var _) guard takes the implied side" true (rets = [ 2; 4 ]);
  check_int "only the first test probes (bool)" 4 calls

(* ----- carried samples ----- *)

(* A completed path carries its sample models, searched from the set
   its model was solved from. On real draws of models from three
   protocols, each must be what a fresh solve of the path condition
   gives at that rotation — what concretization used to solve for
   itself. *)
let test_carried_samples_on_models () =
  let module Model_def = Eywa_models.Model_def in
  let module Pipeline = Eywa_core.Pipeline in
  let oracle = Eywa_llm.Gpt.oracle () in
  List.iter
    (fun (m : Model_def.t) ->
      let config =
        { (Model_def.pipeline_config ~k:2 ~timeout:2.0 m) with max_paths = 600 }
      in
      let main =
        match m.main with
        | Eywa_core.Emodule.Func f -> f
        | _ -> Alcotest.fail "main not Func"
      in
      match Pipeline.run ~config ~oracle m.graph ~main:m.main with
      | Error e -> Alcotest.failf "%s: %s" m.id e
      | Ok s ->
          check (m.id ^ ": some compiled draw") true (s.programs <> []);
          List.iter
            (fun program ->
              Term.with_fresh_ids (fun () ->
                  let _, paths, _ = Pipeline.symex ~config m.graph ~main program in
                  check (m.id ^ ": some path") true (paths <> []);
                  List.iter
                    (fun (p : Exec.path) ->
                      check_int (m.id ^ ": samples per path")
                        (config.samples_per_path - 1) (Array.length p.samples);
                      Array.iteri
                        (fun i sample ->
                          let fresh =
                            match
                              Solve.solve ~max_decisions:config.max_solver_decisions
                                ~rotate:(i + 1) p.pc
                            with
                            | Solve.Sat model -> model
                            | Solve.Unsat | Solve.Unknown -> p.model
                          in
                          check (m.id ^ ": sample = fresh rotated solve") true
                            (sample = fresh))
                        p.samples)
                    paths))
            s.programs)
    Eywa_models.
      [ Dns_models.cname; Dns_models.wildcard; Bgp_models.rr; Smtp_models.server ]

(* The implied branch is the solver's own verdict: for any pc drawn
   from a small guard pool (negations, [Not (Var _)] included), a guard
   the pc holds cannot fail on it, and a guard whose negation it holds
   cannot pass. *)
let prop_implied_branch_is_solver_verdict =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:300 ~name:"implied branches agree with the solver"
       QCheck2.Gen.(
         pair (list_size (int_range 1 6) (int_range 0 11)) (int_range 0 11))
       (fun (picks, gi) ->
         Term.with_fresh_ids (fun () ->
             let int3 name =
               Term.var (Term.fresh_var ~name (Term.Sint 3) (Array.init 8 Fun.id))
             in
             let x = int3 "x" and y = int3 "y" in
             let b = Term.var (Term.fresh_var ~name:"b" Term.Sbool [| 0; 1 |]) in
             let base =
               [|
                 Term.gt x (Term.const 3);
                 Term.eq x y;
                 Term.lt y (Term.const 6);
                 b;
                 Term.and_ b (Term.le x y);
                 Term.or_ (Term.eq y (Term.const 2)) b;
               |]
             in
             let pool = Array.append base (Array.map Term.not_ base) in
             let pc = List.map (fun i -> pool.(i)) picks in
             let unsat pc = Solve.solve pc = Solve.Unsat in
             let g = pool.(gi) in
             let refuted =
               List.mem (Term.not_ g) pc
               || match g with Term.Not d -> List.mem d pc | _ -> false
             in
             List.for_all (fun c -> unsat (Term.not_ c :: pc)) pc
             && ((not refuted) || unsat (g :: pc)))))

let suite =
  [
    Alcotest.test_case "regex: literals" `Quick test_regex_literals;
    Alcotest.test_case "regex: star" `Quick test_regex_star;
    Alcotest.test_case "regex: alternation, plus, option" `Quick test_regex_alt_plus_opt;
    Alcotest.test_case "regex: classes and dot" `Quick test_regex_class_and_any;
    Alcotest.test_case "regex: the DNS domain pattern" `Quick test_regex_domain_pattern;
    Alcotest.test_case "regex: parse errors" `Quick test_regex_parse_errors;
    Alcotest.test_case "regex: alphabet extraction" `Quick test_regex_alphabet;
    Alcotest.test_case "regex: compile_term on concrete cells" `Quick test_compile_term_concrete;
    prop_compile_term_sound;
    Alcotest.test_case "sv: concretize strings" `Quick test_sv_concretize;
    Alcotest.test_case "sv: of_value round trip" `Quick test_sv_of_value_roundtrip;
    Alcotest.test_case "exec: branch coverage" `Quick test_exec_branch_coverage;
    Alcotest.test_case "exec: nested branches" `Quick test_exec_nested_branches;
    Alcotest.test_case "exec: assumes prune" `Quick test_exec_assume;
    Alcotest.test_case "exec: strlen forks per length" `Quick test_exec_strlen_forks;
    Alcotest.test_case "exec: strcmp equality class" `Quick test_exec_strcmp_paths;
    Alcotest.test_case "exec: loop unrolling" `Quick test_exec_loop_unrolling;
    Alcotest.test_case "exec: error paths reported" `Quick test_exec_error_paths;
    Alcotest.test_case "exec: symbolic index concretized" `Quick test_exec_symbolic_index;
    Alcotest.test_case "exec: max-paths budget" `Quick test_exec_budget_max_paths;
    Alcotest.test_case "exec: step budget" `Quick test_exec_step_budget;
    Alcotest.test_case "exec: solver Unknown is not pruned" `Quick
      test_exec_unknown_not_pruned;
    Alcotest.test_case "exec: calls fork and return" `Quick test_exec_call_and_return;
    Alcotest.test_case "exec: native hooks" `Quick test_exec_native;
    Alcotest.test_case "exec: symbolic agrees with concrete replay" `Quick
      test_exec_concolic_agreement;
    Alcotest.test_case "exec: a re-tested loop guard is in the pc once" `Quick
      test_exec_loop_guard_once;
    Alcotest.test_case "exec: negated guards take the implied branch" `Quick
      test_exec_implied_negation;
    prop_implied_branch_is_solver_verdict;
    Alcotest.test_case "exec: carried samples = fresh rotated solves (4 models)" `Slow
      test_carried_samples_on_models;
  ]
