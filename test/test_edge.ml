(* Additional edge cases across the substrate: symbolic strcpy and
   aggregates, parser corner forms, harness guard composition. *)

module Term = Eywa_solver.Term
module Sv = Eywa_symex.Sv
module Exec = Eywa_symex.Exec
module Parser = Eywa_minic.Parser
module Value = Eywa_minic.Value
open Eywa_core

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let parse_ok src =
  match Parser.parse_result src with
  | Ok p ->
      Eywa_minic.Typecheck.check_exn p;
      p
  | Error m -> Alcotest.failf "parse failed: %s" m

let sym_int ?(width = 3) name =
  Sv.fresh_scalar ~name (Eywa_minic.Ast.Tint width)
    ~domain:(Array.init (1 lsl width) (fun i -> i))

(* ----- symbolic strcpy ----- *)

let test_symex_strcpy_of_symbolic () =
  let alphabet = [| 0; Char.code 'a'; Char.code 'b' |] in
  let s = Sv.symbolic_string ~alphabet ~name:"s" 2 in
  let p =
    parse_ok
      "bool f(char* s) { char buf[4]; strcpy(buf, s); return strcmp(buf, \"ab\") == 0; }"
  in
  let paths, _ = Exec.run p ~entry:"f" ~args:[ s ] ~assumes:[] in
  let hits =
    List.filter
      (fun (pr : Exec.path) -> Value.truthy (Sv.concretize pr.model pr.ret))
      paths
  in
  check_int "one matching class" 1 (List.length hits);
  Alcotest.(check string) "copied string solved" "ab"
    (Value.cstring (Sv.concretize (List.hd hits).model s))

let test_symex_struct_field_string () =
  (* strings inside structs flow through field reads and strlen *)
  let alphabet = [| 0; Char.code 'a' |] in
  let name_sv = Sv.symbolic_string ~alphabet ~name:"nm" 2 in
  let box = Sv.Sstruct ("Box", [ ("nm", name_sv) ]) in
  let p =
    parse_ok
      "typedef struct { char* nm; } Box;\nint f(Box b) { return strlen(b.nm); }"
  in
  let paths, _ = Exec.run p ~entry:"f" ~args:[ box ] ~assumes:[] in
  check_int "one path per length" 3 (List.length paths)

let test_symex_array_write_fork () =
  (* writing through a symbolic index forks per cell *)
  let idx = sym_int ~width:2 "i" in
  let p =
    parse_ok
      "int f(uint8_t i) { uint8_t xs[3]; xs[0] = 1; xs[1] = 2; xs[2] = 3; \
       xs[i] = 9; return xs[0] + xs[1] + xs[2]; }"
  in
  let paths, _ = Exec.run p ~entry:"f" ~args:[ idx ] ~assumes:[] in
  let ok = List.filter (fun (pr : Exec.path) -> pr.error = None) paths in
  let err = List.filter (fun (pr : Exec.path) -> pr.error <> None) paths in
  check_int "three in-bounds writes" 3 (List.length ok);
  check_int "one out-of-bounds (i = 3)" 1 (List.length err);
  (* each in-bounds path replaces exactly one element *)
  let sums =
    List.map
      (fun (pr : Exec.path) -> Value.to_int (Sv.concretize pr.model pr.ret))
      ok
    |> List.sort compare
  in
  check "sums are 6 with one element swapped for 9" true
    (sums = [ 6 - 1 + 9; 6 - 2 + 9; 6 - 3 + 9 ] || sums = [ 12; 13; 14 ])

let test_symex_recursion_forks () =
  let x = sym_int "x" in
  let p =
    parse_ok
      "int count(uint8_t x) { if (x == 0) { return 0; } return 1 + count(x - 1); }"
  in
  let paths, _ = Exec.run p ~entry:"count" ~args:[ x ] ~assumes:[] in
  check_int "one path per recursion depth" 8 (List.length paths)

(* ----- parser corner forms ----- *)

let test_parser_else_if_chain () =
  let p =
    parse_ok
      "int f(int a) { if (a == 1) { return 1; } else if (a == 2) { return 2; } \
       else { return 3; } }"
  in
  match Eywa_minic.Interp.run p "f" [ Value.Vint 2 ] with
  | Ok v -> check_int "middle branch" 2 (Value.to_int v)
  | Error e -> Alcotest.failf "%s" (Eywa_minic.Interp.error_to_string e)

let test_parser_empty_for_clauses () =
  let p =
    parse_ok
      "int f() { int acc = 0; for (;;) { acc += 1; if (acc > 4) { break; } } return acc; }"
  in
  match Eywa_minic.Interp.run p "f" [] with
  | Ok v -> check_int "bare for" 5 (Value.to_int v)
  | Error e -> Alcotest.failf "%s" (Eywa_minic.Interp.error_to_string e)

let test_parser_nested_struct_access () =
  let p =
    parse_ok
      "typedef struct { int x; } Inner;\n\
       typedef struct { Inner a; Inner b; } Outer;\n\
       int f(Outer o) { o.a.x = o.b.x + 1; return o.a.x; }"
  in
  let inner v = Value.Vstruct ("Inner", [ ("x", Value.Vint v) ]) in
  let outer = Value.Vstruct ("Outer", [ ("a", inner 0); ("b", inner 41) ]) in
  match Eywa_minic.Interp.run p "f" [ outer ] with
  | Ok v -> check_int "nested field update" 42 (Value.to_int v)
  | Error e -> Alcotest.failf "%s" (Eywa_minic.Interp.error_to_string e)

let test_parser_comment_only_body () =
  let p = parse_ok "void f() { // nothing to do\n }" in
  check "parses empty body" true ((List.hd p.Eywa_minic.Ast.funcs).body = [])

(* ----- harness: func guard composed with regex guard ----- *)

let test_harness_func_guard_gates_main () =
  let sarg = Etype.Arg.v "s" (Etype.string_ ~maxsize:3) "input" in
  let main =
    Emodule.func_module "target_fn" "target" [ sarg; Etype.Arg.v "r" Etype.bool_ "out" ]
  in
  let guard =
    Emodule.func_module "guard_fn" "validity"
      [ sarg; Etype.Arg.v "valid" Etype.bool_ "ok" ]
  in
  let g = Graph.create () in
  Graph.pipe g guard main;
  let oracle =
    Oracle.make ~name:"canned" (fun req ->
        let has needle =
          let nl = String.length needle and hl = String.length req.Oracle.user in
          let rec go i =
            i + nl <= hl && (String.sub req.user i nl = needle || go (i + 1))
          in
          go 0
        in
        if has "bool guard_fn" then
          "bool guard_fn(char* s) { return strlen(s) > 1; }"
        else "bool target_fn(char* s) { return s[0] == 'a'; }")
  in
  let config = { Pipeline.default_config with k = 1; alphabet = [ 'a'; 'b' ] } in
  match Pipeline.run ~config ~oracle g ~main with
  | Error e -> Alcotest.fail e
  | Ok result ->
      (* every short input must be flagged bad_input by the func guard *)
      List.iter
        (fun (t : Testcase.t) ->
          let s = Testcase.input_string t "s" in
          if String.length s <= 1 && t.error = None then
            check (Printf.sprintf "%S flagged" s) true t.bad_input)
        result.unique_tests;
      check "some valid tests too" true
        (List.exists (fun (t : Testcase.t) -> not t.bad_input) result.unique_tests)

(* ----- adapters: decoding robustness ----- *)

let test_dns_adapter_skips_error_tests () =
  let t =
    { Testcase.inputs = [ ("query", Value.of_cstring "a") ];
      result = None; bad_input = false; error = Some "division by zero" }
  in
  check "crash-path tests not replayed" true
    (Eywa_models.Dns_adapter.artifacts_for ~model_id:"DNAME" t = None)

let test_bgp_adapter_handles_missing_inputs () =
  let t =
    { Testcase.inputs = []; result = Some (Value.Vbool true); bad_input = false;
      error = None }
  in
  (* CONFED treats absent scalars as zero rather than crashing *)
  check "confed observation built" true
    (Eywa_models.Bgp_adapter.observations_for ~model_id:"CONFED" t <> None);
  check "rmap-pl needs its structs" true
    (Eywa_models.Bgp_adapter.observations_for ~model_id:"RMAP-PL" t = None)

let suite =
  [
    Alcotest.test_case "symex: strcpy of symbolic strings" `Quick
      test_symex_strcpy_of_symbolic;
    Alcotest.test_case "symex: strings inside structs" `Quick
      test_symex_struct_field_string;
    Alcotest.test_case "symex: array writes fork per index" `Quick
      test_symex_array_write_fork;
    Alcotest.test_case "symex: recursion forks per depth" `Quick
      test_symex_recursion_forks;
    Alcotest.test_case "parser: else-if chains" `Quick test_parser_else_if_chain;
    Alcotest.test_case "parser: bare for(;;)" `Quick test_parser_empty_for_clauses;
    Alcotest.test_case "parser: nested struct access" `Quick
      test_parser_nested_struct_access;
    Alcotest.test_case "parser: comment-only body" `Quick test_parser_comment_only_body;
    Alcotest.test_case "harness: func guards gate the main module" `Quick
      test_harness_func_guard_gates_main;
    Alcotest.test_case "adapters: crash tests skipped" `Quick
      test_dns_adapter_skips_error_tests;
    Alcotest.test_case "adapters: missing inputs tolerated" `Quick
      test_bgp_adapter_handles_missing_inputs;
  ]
