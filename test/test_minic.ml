module Ast = Eywa_minic.Ast
module Lexer = Eywa_minic.Lexer
module Parser = Eywa_minic.Parser
module Pretty = Eywa_minic.Pretty
module Typecheck = Eywa_minic.Typecheck
module Value = Eywa_minic.Value
module Interp = Eywa_minic.Interp

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let parse_ok src =
  match Parser.parse_result src with
  | Ok p -> p
  | Error m -> Alcotest.failf "parse failed: %s" m

let run ?natives p fn args =
  match Interp.run ?natives p fn args with
  | Ok v -> v
  | Error e -> Alcotest.failf "run failed: %s" (Interp.error_to_string e)

(* ----- lexer ----- *)

let test_lexer_basic () =
  let toks = Lexer.tokenize "int x = 42; // comment\nif (x >= 2) { x++; }" in
  let kinds = List.map fst toks in
  check "has ident int" true (List.mem (Lexer.IDENT "int") kinds);
  check "has 42" true (List.mem (Lexer.INT 42) kinds);
  check "has GE" true (List.mem Lexer.GE kinds);
  check "has PLUSPLUS" true (List.mem Lexer.PLUSPLUS kinds);
  check "comment skipped" false
    (List.exists (function Lexer.IDENT "comment" -> true | _ -> false) kinds);
  check "ends with EOF" true (fst (List.nth toks (List.length toks - 1)) = Lexer.EOF)

let test_lexer_literals () =
  let toks = Lexer.tokenize {|'a' '\n' '\0' "hi\n" "with \"quote\""|} in
  let kinds = List.map fst toks in
  check "char a" true (List.mem (Lexer.CHARLIT 'a') kinds);
  check "newline" true (List.mem (Lexer.CHARLIT '\n') kinds);
  check "nul" true (List.mem (Lexer.CHARLIT '\000') kinds);
  check "string" true (List.mem (Lexer.STRLIT "hi\n") kinds);
  check "escaped quote" true (List.mem (Lexer.STRLIT {|with "quote"|}) kinds)

let test_lexer_preprocessor_skipped () =
  let toks = Lexer.tokenize "#include <stdio.h>\nint x;" in
  check "include line dropped" false
    (List.exists (function Lexer.IDENT "include" -> true | _ -> false)
       (List.map fst toks))

let test_lexer_block_comment () =
  let toks = Lexer.tokenize "/* multi\nline */ int y;" in
  check_int "three tokens + eof" 4 (List.length toks)

let test_lexer_errors () =
  Alcotest.check_raises "unterminated string"
    (Lexer.Error ("unterminated string literal", 1))
    (fun () -> ignore (Lexer.tokenize "\"abc"));
  check "bad char" true
    (match Lexer.tokenize "int @ x;" with
    | exception Lexer.Error _ -> true
    | _ -> false)

(* ----- parser ----- *)

let test_parse_typedefs () =
  let p = parse_ok
    "typedef enum { A, B, C } Kind;\n\
     typedef struct { Kind k; char* name; uint8_t tags[3]; } Item;"
  in
  check_int "one enum" 1 (List.length p.Ast.enums);
  check_int "one struct" 1 (List.length p.Ast.structs);
  let s = List.hd p.Ast.structs in
  check "array field" true
    (List.exists (fun (t, n) -> n = "tags" && t = Ast.Tarray (Ast.Tint 8, 3)) s.fields);
  check "string field" true
    (List.exists (fun (t, n) -> n = "name" && t = Ast.Tstring) s.fields)

let test_parse_precedence () =
  let p = parse_ok "int f(int a, int b) { return a + b * 2 == 7 && !(a < b) || false; }" in
  let f = List.hd p.Ast.funcs in
  (match f.body with
  | [ Ast.Sreturn (Some (Ast.Ebinop (Ast.Lor, Ast.Ebinop (Ast.Land, _, _), Ast.Ebool false))) ] -> ()
  | _ -> Alcotest.fail "wrong precedence structure");
  check_str "pretty round" "a + b * 2 == 7 && !(a < b) || false"
    (match f.body with
    | [ Ast.Sreturn (Some e) ] -> Pretty.expr e
    | _ -> "?")

let test_parse_control_flow () =
  let p = parse_ok
    "int f(int n) {\n\
    \  int acc = 0;\n\
    \  for (int i = 0; i < n; i++) {\n\
    \    if (i % 2 == 0) { continue; }\n\
    \    acc += i;\n\
    \    if (acc > 100) break;\n\
    \  }\n\
    \  while (acc > 10) { acc -= 10; }\n\
    \  return acc;\n\
     }"
  in
  check_int "parsed one function" 1 (List.length p.Ast.funcs)

let test_parse_ternary () =
  let p = parse_ok "int f(int a) { return a > 0 ? a : -a; }" in
  match (List.hd p.Ast.funcs).body with
  | [ Ast.Sreturn (Some (Ast.Econd (_, _, _))) ] -> ()
  | _ -> Alcotest.fail "expected ternary"

let test_parse_prototypes () =
  let p = parse_ok "bool helper(char* s);\nbool main_fn(char* s) { return helper(s); }" in
  check_int "one proto" 1 (List.length p.Ast.protos);
  check_int "one func" 1 (List.length p.Ast.funcs)

let test_parse_errors () =
  check "missing semi" true (Result.is_error (Parser.parse_result "int f() { return 1 }"));
  check "unknown type" true (Result.is_error (Parser.parse_result "foo f() { return 1; }"));
  check "unbalanced brace" true (Result.is_error (Parser.parse_result "int f() { return 1;"));
  check "pointer to struct rejected" true
    (Result.is_error
       (Parser.parse_result
          "typedef struct { int x; } S;\nint f(S* s) { return 0; }"))

(* pretty -> parse round trip on a hand-built AST *)
let test_pretty_roundtrip () =
  let src =
    "typedef enum { RED, GREEN } Color;\n\
     typedef struct { Color c; char* label; } Tag;\n\
     bool is_red(Tag t) {\n\
    \  if (t.c == RED) { return true; }\n\
    \  int n = strlen(t.label);\n\
    \  for (int i = 0; i < n; i++) { if (t.label[i] == 'r') { return true; } }\n\
    \  return false;\n\
     }"
  in
  let p1 = parse_ok src in
  let p2 = parse_ok (Pretty.program p1) in
  check "same after round trip" true (p1 = p2)

let test_loc () =
  check_int "counts non-blank lines" 3 (Pretty.loc "a\n\n b\n\nc\n")

(* ----- typechecker ----- *)

let tc src = Typecheck.check (parse_ok src)

let test_typecheck_accepts () =
  check "simple" true (Result.is_ok (tc "int f(int a) { return a + 1; }"));
  check "struct access" true
    (Result.is_ok
       (tc "typedef struct { int x; } P;\nint f(P p) { return p.x; }"));
  check "string builtins" true
    (Result.is_ok (tc "int f(char* s) { return strlen(s) + strcmp(s, \"a\"); }"));
  check "strcpy statement" true
    (Result.is_ok (tc "void f(char* s) { strcpy(s, \"ab\"); }"));
  check "enum comparisons" true
    (Result.is_ok
       (tc "typedef enum { A, B } E;\nbool f(E e) { return e == B; }"))

let test_typecheck_rejects () =
  check "unbound var" true (Result.is_error (tc "int f() { return y; }"));
  check "banned strtok" true
    (Result.is_error (tc "void f(char* s) { strtok(s, \".\"); }"));
  check "string equality operator" true
    (Result.is_error (tc "bool f(char* a, char* b) { return a == b; }"));
  check "string assignment" true
    (Result.is_error (tc "void f(char* a, char* b) { a = b; }"));
  check "arity mismatch" true
    (Result.is_error (tc "int g(int a) { return a; }\nint f() { return g(1, 2); }"));
  check "missing return value" true
    (Result.is_error (tc "int f() { return; }"));
  check "break outside loop" true (Result.is_error (tc "void f() { break; }"));
  check "redeclaration" true
    (Result.is_error (tc "int f() { int x = 1; int x = 2; return x; }"));
  check "undefined function" true
    (Result.is_error (tc "int f() { return mystery(); }"));
  check "field of non-struct" true
    (Result.is_error (tc "int f(int a) { return a.x; }"))

let test_typecheck_shadowing_in_blocks () =
  check "inner scope may shadow" true
    (Result.is_ok
       (tc "int f() { int x = 1; if (x > 0) { int x = 2; return x; } return x; }"))

(* ----- interpreter ----- *)

let test_interp_arith () =
  let p = parse_ok "int f(int a, int b) { return (a + b) * 2 - a % b; }" in
  check_int "(3+4)*2 - 3%4" 11 (Value.to_int (run p "f" [ Value.Vint 3; Value.Vint 4 ]))

let test_interp_strings () =
  let p = parse_ok
    "int f(char* s) { return strlen(s); }\n\
     int g(char* a, char* b) { return strcmp(a, b); }\n\
     bool h(char* a) { return strncmp(a, \"ab\", 2) == 0; }"
  in
  check_int "strlen" 3 (Value.to_int (run p "f" [ Value.of_cstring "abc" ]));
  check "strcmp equal" true
    (Value.to_int (run p "g" [ Value.of_cstring "x"; Value.of_cstring "x" ]) = 0);
  check "strcmp less" true
    (Value.to_int (run p "g" [ Value.of_cstring "a"; Value.of_cstring "b" ]) < 0);
  check "strncmp prefix" true
    (Value.truthy (run p "h" [ Value.of_cstring "abz" ]))

let test_interp_strcpy () =
  let p = parse_ok
    "char* f() { char buf[8]; strcpy(buf, \"hey\"); return buf; }"
  in
  check_str "copied" "hey" (Value.cstring (run p "f" []))

let test_interp_struct_mutation () =
  let p = parse_ok
    "typedef struct { int x; int y; } P;\n\
     int f(P p) { p.x = p.x + 10; return p.x + p.y; }"
  in
  let pv = Value.Vstruct ("P", [ ("x", Value.Vint 1); ("y", Value.Vint 2) ]) in
  check_int "10+1+2" 13 (Value.to_int (run p "f" [ pv ]))

let test_interp_array () =
  let p = parse_ok
    "int f() { uint8_t xs[4]; xs[0] = 3; xs[1] = xs[0] + 1; return xs[0] + xs[1]; }"
  in
  check_int "3+4" 7 (Value.to_int (run p "f" []))

let test_interp_loops () =
  let p = parse_ok
    "int f(int n) { int acc = 0; for (int i = 1; i <= n; i++) { acc += i; } return acc; }"
  in
  check_int "sum 1..10" 55 (Value.to_int (run p "f" [ Value.Vint 10 ]))

let test_interp_recursion () =
  let p = parse_ok "int fib(int n) { if (n < 2) { return n; } return fib(n-1) + fib(n-2); }" in
  check_int "fib 10" 55 (Value.to_int (run p "fib" [ Value.Vint 10 ]))

let test_interp_fuel () =
  let p = parse_ok "int f() { while (true) { } return 0; }" in
  check "runs out of fuel" true
    (Interp.run ~fuel:1000 p "f" [] = Error Interp.Out_of_fuel)

let test_interp_oob () =
  let p = parse_ok "char f(char* s) { return s[100]; }" in
  check "out of bounds" true
    (match Interp.run p "f" [ Value.of_cstring "a" ] with
    | Error (Interp.Runtime _) -> true
    | _ -> false)

let test_interp_division_by_zero () =
  let p = parse_ok "int f(int a) { return 10 / a; }" in
  check "div by zero" true
    (match Interp.run p "f" [ Value.Vint 0 ] with
    | Error (Interp.Runtime _) -> true
    | _ -> false)

let test_interp_enum_fallback () =
  let p = parse_ok
    "typedef enum { LOW, HIGH } Level;\nbool f(Level l) { return l == HIGH; }"
  in
  check "enum member resolves" true
    (Value.truthy (run p "f" [ Value.Venum ("Level", 1) ]))

let test_interp_natives () =
  let p = parse_ok "bool f(char* s); bool g(char* s) { return f(s); }" in
  let natives = [ ("f", fun _ -> Value.Vbool true) ] in
  check "native hook used" true (Value.truthy (run ~natives p "g" [ Value.of_cstring "x" ]))

let test_interp_break_continue () =
  let p = parse_ok
    "int f() { int acc = 0; for (int i = 0; i < 10; i++) {\n\
    \  if (i == 3) { continue; } if (i == 6) { break; } acc += i; } return acc; }"
  in
  (* 0+1+2+4+5 = 12 *)
  check_int "break/continue" 12 (Value.to_int (run p "f" []))

let test_interp_ternary () =
  let p = parse_ok "int f(int a) { return a > 5 ? 1 : 0; }" in
  check_int "true side" 1 (Value.to_int (run p "f" [ Value.Vint 9 ]));
  check_int "false side" 0 (Value.to_int (run p "f" [ Value.Vint 1 ]))

(* ----- the scoping and tick rules the compiled interpreter keeps ----- *)

let test_interp_block_shadowing () =
  let p = parse_ok
    "int f() { int x = 1; int y = 0;\n\
    \  if (true) { int x = 5; x = x + 1; y = x; }\n\
    \  return x * 10 + y; }"
  in
  (* the inner x is 6 inside its block; the outer x is still 1 after it *)
  check_int "inner x shadows, outer x survives" 16 (Value.to_int (run p "f" []))

let test_interp_loop_decl_reset () =
  let p = parse_ok
    "int f() { int total = 0;\n\
    \  for (int i = 0; i < 3; i++) { int acc; acc = acc + i; total = total + acc; }\n\
    \  return total; }"
  in
  (* acc restarts at 0 every iteration: 0 + 1 + 2; a carried-over acc
     would give 0 + 1 + 3 *)
  check_int "uninitialised loop local is reset" 3 (Value.to_int (run p "f" []))

let test_interp_decl_reads_outer () =
  let p = parse_ok "int f(int x) { if (true) { int x = x + 1; return x; } return 0; }" in
  check_int "int x = x + 1 reads the enclosing x" 5
    (Value.to_int (run p "f" [ Value.Vint 4 ]))

let test_interp_fresh_frames () =
  let p = parse_ok
    "int g(int n) { int a = n * 100; return a; }\n\
     int f(int n) { int a = n; int b = 0;\n\
    \  if (n > 0) { b = f(n - 1); a = a + g(n) + b; }\n\
    \  return a; }"
  in
  (* f(n) = n + 100n + f(n-1): the callee's a and b never clobber the
     caller's *)
  check_int "recursion and same-named callee locals" 606
    (Value.to_int (run p "f" [ Value.Vint 3 ]))

let test_interp_use_before_decl () =
  let p = parse_ok
    "typedef enum { RED, GREEN } Color;\n\
     int f() { int r = GREEN; int GREEN = 7; return r + GREEN; }\n\
     int g() { int r = y; int y = 2; return r; }"
  in
  (* before its declaration GREEN is the enum member (index 1), after
     it the local *)
  check_int "enum member, then the local" 8 (Value.to_int (run p "f" []));
  check "no enum member: unbound" true
    (Interp.run p "g" [] = Error (Interp.Runtime "unbound variable \"y\""))

let test_interp_for_step_decl () =
  let p = parse_ok
    "int f() { int j = 100; int s = 0;\n\
    \  for (int i = 0; i < 3; int j = i) { s = s + j; i = i + 1; }\n\
    \  return s * 1000 + j; }"
  in
  (* the step's j is in scope from the second iteration on: 100 + 1 + 2;
     the outer j is untouched *)
  check_int "step declaration seen after the first step" 103100
    (Value.to_int (run p "f" []))

let test_interp_fuel_exact () =
  let p = parse_ok "int f(int n) { int i = 0; while (i < n) { i = i + 1; } return i; }" in
  (* call 1 + decl 1 + while 1 + (n+1) tests + n body statements +
     return 1 = 2n + 5 *)
  let t = (2 * 10) + 5 in
  check "succeeds at exactly 2n+5" true
    (Interp.run ~fuel:t p "f" [ Value.Vint 10 ] = Ok (Value.Vint 10));
  check "out of fuel one below" true
    (Interp.run ~fuel:(t - 1) p "f" [ Value.Vint 10 ] = Error Interp.Out_of_fuel);
  let q = parse_ok
    "int g(int v) { return v; }\n\
     int f(int n) { int s = 0; for (int i = 0; i < n; i++) { s = s + g(i); } return s; }"
  in
  (* call 1 + decl 1 + for 1 + init 1 + (n+1) tests + n body statements
     + n calls of 2 ticks (call + return) + n steps + return 1 = 5n + 6 *)
  let t = (5 * 4) + 6 in
  check "calls tick after their arguments: 5n+6" true
    (Interp.run ~fuel:t q "f" [ Value.Vint 4 ] = Ok (Value.Vint 6));
  check "out of fuel one below" true
    (Interp.run ~fuel:(t - 1) q "f" [ Value.Vint 4 ] = Error Interp.Out_of_fuel)

(* property: pretty/parse round trip on random straight-line programs *)
let gen_expr_src =
  let open QCheck2.Gen in
  let atom = oneof [ map string_of_int (int_range 0 99); pure "a"; pure "b" ] in
  let op = oneofl [ "+"; "-"; "*"; "=="; "<"; "&&"; "||" ] in
  sized @@ fix (fun self n ->
      if n <= 0 then atom
      else
        map3 (fun a o b -> Printf.sprintf "(%s %s %s)" a o b)
          (self (n / 2)) op (self (n / 2)))

let prop_roundtrip =
  QCheck2.Test.make ~count:150 ~name:"pretty . parse = id on random expressions"
    gen_expr_src
    (fun src ->
      let full = Printf.sprintf "int f(int a, int b) { return %s; }" src in
      match Parser.parse_result full with
      | Error _ -> false
      | Ok p1 -> (
          match Parser.parse_result (Pretty.program p1) with
          | Error _ -> false
          | Ok p2 -> p1 = p2))

let prop_interp_deterministic =
  QCheck2.Test.make ~count:60 ~name:"interpreting twice gives the same value"
    QCheck2.Gen.(pair (int_range 0 20) (int_range 1 20))
    (fun (a, b) ->
      let p = parse_ok "int f(int a, int b) { int acc = 0; for (int i = 0; i < a; i++) { acc += i % b; } return acc; }" in
      run p "f" [ Value.Vint a; Value.Vint b ]
      = run p "f" [ Value.Vint a; Value.Vint b ])

let suite =
  [
    Alcotest.test_case "lexer: basics" `Quick test_lexer_basic;
    Alcotest.test_case "lexer: literals" `Quick test_lexer_literals;
    Alcotest.test_case "lexer: preprocessor skipped" `Quick test_lexer_preprocessor_skipped;
    Alcotest.test_case "lexer: block comments" `Quick test_lexer_block_comment;
    Alcotest.test_case "lexer: errors" `Quick test_lexer_errors;
    Alcotest.test_case "parser: typedefs" `Quick test_parse_typedefs;
    Alcotest.test_case "parser: precedence" `Quick test_parse_precedence;
    Alcotest.test_case "parser: control flow" `Quick test_parse_control_flow;
    Alcotest.test_case "parser: ternary" `Quick test_parse_ternary;
    Alcotest.test_case "parser: prototypes" `Quick test_parse_prototypes;
    Alcotest.test_case "parser: errors" `Quick test_parse_errors;
    Alcotest.test_case "pretty: round trip" `Quick test_pretty_roundtrip;
    Alcotest.test_case "pretty: loc" `Quick test_loc;
    Alcotest.test_case "typecheck: accepts valid programs" `Quick test_typecheck_accepts;
    Alcotest.test_case "typecheck: rejects invalid programs" `Quick test_typecheck_rejects;
    Alcotest.test_case "typecheck: block shadowing" `Quick test_typecheck_shadowing_in_blocks;
    Alcotest.test_case "interp: arithmetic" `Quick test_interp_arith;
    Alcotest.test_case "interp: strings" `Quick test_interp_strings;
    Alcotest.test_case "interp: strcpy" `Quick test_interp_strcpy;
    Alcotest.test_case "interp: struct mutation is local" `Quick test_interp_struct_mutation;
    Alcotest.test_case "interp: arrays" `Quick test_interp_array;
    Alcotest.test_case "interp: loops" `Quick test_interp_loops;
    Alcotest.test_case "interp: recursion" `Quick test_interp_recursion;
    Alcotest.test_case "interp: fuel bound" `Quick test_interp_fuel;
    Alcotest.test_case "interp: out of bounds" `Quick test_interp_oob;
    Alcotest.test_case "interp: division by zero" `Quick test_interp_division_by_zero;
    Alcotest.test_case "interp: enum member fallback" `Quick test_interp_enum_fallback;
    Alcotest.test_case "interp: native hooks" `Quick test_interp_natives;
    Alcotest.test_case "interp: break and continue" `Quick test_interp_break_continue;
    Alcotest.test_case "interp: ternary" `Quick test_interp_ternary;
    Alcotest.test_case "interp: block shadowing" `Quick test_interp_block_shadowing;
    Alcotest.test_case "interp: loop locals reset per iteration" `Quick
      test_interp_loop_decl_reset;
    Alcotest.test_case "interp: initialiser reads the outer name" `Quick
      test_interp_decl_reads_outer;
    Alcotest.test_case "interp: fresh frame per call" `Quick test_interp_fresh_frames;
    Alcotest.test_case "interp: use before declaration" `Quick test_interp_use_before_decl;
    Alcotest.test_case "interp: for-step declaration" `Quick test_interp_for_step_decl;
    Alcotest.test_case "interp: fuel is exact" `Quick test_interp_fuel_exact;
    QCheck_alcotest.to_alcotest prop_roundtrip;
    QCheck_alcotest.to_alcotest prop_interp_deterministic;
  ]
