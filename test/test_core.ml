open Eywa_core
module Ast = Eywa_minic.Ast
module Value = Eywa_minic.Value

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

(* ----- Etype ----- *)

let test_etype_to_minic () =
  check "bool" true (Etype.to_minic Etype.bool_ = Ast.Tbool);
  check "string" true (Etype.to_minic (Etype.string_ ~maxsize:5) = Ast.Tstring);
  check "alias erased" true
    (Etype.to_minic (Etype.alias "Domain" (Etype.string_ ~maxsize:5)) = Ast.Tstring);
  check "int width" true (Etype.to_minic (Etype.int_ ~bits:5) = Ast.Tint 5);
  check "struct named" true
    (Etype.to_minic (Etype.struct_ "S" [ ("x", Etype.bool_) ]) = Ast.Tstruct "S")

let test_etype_validation () =
  let raises f = match f () with exception Invalid_argument _ -> true | _ -> false in
  check "zero string" true (raises (fun () -> Etype.string_ ~maxsize:0));
  check "empty enum" true (raises (fun () -> Etype.enum "E" []));
  check "zero array" true (raises (fun () -> Etype.array Etype.bool_ 0));
  check "33-bit int" true (raises (fun () -> Etype.int_ ~bits:33))

let test_etype_declarations () =
  let e = Etype.enum "Kind" [ "A"; "B" ] in
  let inner = Etype.struct_ "Inner" [ ("k", e) ] in
  let outer = Etype.struct_ "Outer" [ ("i", inner); ("xs", Etype.array inner 2) ] in
  let enums, structs = Etype.declarations [ outer; inner; e ] in
  check_int "one enum" 1 (List.length enums);
  check_int "two structs, deduplicated" 2 (List.length structs);
  check "dependency order" true
    ((List.hd structs).Ast.sname = "Inner")

let test_etype_conflicting_decl () =
  let a = Etype.struct_ "S" [ ("x", Etype.bool_) ] in
  let b = Etype.struct_ "S" [ ("y", Etype.char_) ] in
  check "conflicting struct names rejected" true
    (match Etype.declarations [ a; b ] with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_etype_default () =
  let v = Etype.default_value (Etype.string_ ~maxsize:3) in
  check_str "empty string, bound honoured" "" (Value.cstring v);
  check "buffer is maxsize+1" true (match v with Value.Vstring raw -> String.length raw = 4 | _ -> false)

(* ----- modules and graph ----- *)

let arg name ty = Etype.Arg.v name ty (name ^ " description")

let simple_func name =
  Emodule.func_module name ("About " ^ name)
    [ arg "x" (Etype.int_ ~bits:4); arg "result" Etype.bool_ ]

let test_module_shapes () =
  let f = simple_func "f" in
  check_str "name" "f" (Emodule.name f);
  (match f with
  | Emodule.Func fn ->
      check_int "one input" 1 (List.length (Emodule.inputs fn));
      check_str "result arg" "result" (Emodule.result fn).Etype.Arg.name
  | _ -> Alcotest.fail "expected Func");
  check "needs two args" true
    (match Emodule.func_module "g" "" [ arg "only" Etype.bool_ ] with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_regex_module_validation () =
  let sarg = arg "s" (Etype.string_ ~maxsize:4) in
  (match Emodule.regex_module "[a-z]+" sarg with
  | Emodule.Regex r -> check "pattern kept" true (r.pattern = "[a-z]+")
  | _ -> Alcotest.fail "expected Regex");
  check "bad pattern rejected eagerly" true
    (match Emodule.regex_module "(" sarg with
    | exception Eywa_symex.Regex.Parse_error _ -> true
    | _ -> false);
  check "non-string target rejected" true
    (match Emodule.regex_module "a" (arg "n" (Etype.int_ ~bits:3)) with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_graph_edges () =
  let f = simple_func "f" and g = simple_func "g" and h = simple_func "h" in
  let gr = Graph.create () in
  Graph.call_edge gr f [ g; h ];
  Graph.call_edge gr g [ h ];
  check_int "f deps" 2 (List.length (Graph.call_deps gr f));
  match Graph.synthesis_order gr ~main:f with
  | Ok order ->
      let names = List.map Emodule.name order in
      check "callees before callers" true (names = [ "h"; "g"; "f" ])
  | Error e -> Alcotest.fail e

let test_graph_cycle () =
  let f = simple_func "f" and g = simple_func "g" in
  let gr = Graph.create () in
  Graph.call_edge gr f [ g ];
  Graph.call_edge gr g [ f ];
  check "cycle detected" true (Result.is_error (Graph.synthesis_order gr ~main:f))

let test_graph_pipe_validation () =
  let f = simple_func "f" in
  let sarg = arg "s" (Etype.string_ ~maxsize:4) in
  let re = Emodule.regex_module "a*" sarg in
  check "regex target must be an input of dst" true
    (match Graph.pipe (Graph.create ()) re f with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_graph_guards_in_order () =
  let sarg = arg "s" (Etype.string_ ~maxsize:4) in
  let main =
    Emodule.func_module "main_fn" "main" [ sarg; arg "result" Etype.bool_ ]
  in
  let guard =
    Emodule.func_module "guard_fn" "guard" [ sarg; arg "valid" Etype.bool_ ]
  in
  let re = Emodule.regex_module "a*" sarg in
  let gr = Graph.create () in
  Graph.pipe gr re main;
  Graph.pipe gr guard main;
  check_int "two pipes" 2 (List.length (Graph.pipes_into gr main));
  match Graph.synthesis_order gr ~main with
  | Ok order ->
      check "guard synthesized too" true
        (List.exists (fun m -> Emodule.name m = "guard_fn") order)
  | Error e -> Alcotest.fail e

(* ----- prompts ----- *)

let fig1_setup () =
  let domain = Etype.string_ ~maxsize:5 in
  let rt = Etype.enum "RecordType" [ "A"; "CNAME"; "DNAME" ] in
  let record = Etype.struct_ "Record" [ ("rtyp", rt); ("name", domain) ] in
  let query = Etype.Arg.v "query" domain "A DNS query domain name." in
  let record_arg = Etype.Arg.v "record" record "A DNS record." in
  let result = Etype.Arg.v "result" Etype.bool_ "If the DNS record matches the query." in
  let da =
    Emodule.func_module "dname_applies" "If a DNAME record matches a query."
      [ query; record_arg; result ]
  in
  let ra =
    Emodule.func_module "record_applies" "If a DNS record matches a query."
      [ query; record_arg; result ]
  in
  let valid = Emodule.regex_module {|[a-z*](\.[a-z*])*|} query in
  let g = Graph.create () in
  Graph.pipe g valid ra;
  Graph.call_edge g ra [ da ];
  (g, ra, da)

let test_prompt_structure () =
  let g, ra, _ = fig1_setup () in
  let f = match ra with Emodule.Func f -> f | _ -> assert false in
  let prompt = Prompt.for_module g f in
  check "system prompt bans strtok" true (contains ~needle:"strtok" prompt.system);
  check "user prompt has typedefs" true (contains ~needle:"typedef enum" prompt.user);
  check "user prompt has the record struct" true
    (contains ~needle:"} Record;" prompt.user);
  check "helper prototype included" true
    (contains ~needle:"bool dname_applies(char* query, Record record);" prompt.user);
  check "target signature opens a brace" true
    (contains ~needle:"bool record_applies(char* query, Record record) {" prompt.user);
  check "doc comment describes parameters" true
    (contains ~needle:"query: A DNS query domain name." prompt.user);
  check "completion marker present" true (contains ~needle:"implement me" prompt.user)

let test_prompt_helper_has_no_proto_of_itself () =
  let g, _, da = fig1_setup () in
  let f = match da with Emodule.Func f -> f | _ -> assert false in
  let prompt = Prompt.for_module g f in
  check "no self prototype" false
    (contains ~needle:"bool dname_applies(char* query, Record record);" prompt.user)

(* ----- harness ----- *)

let test_harness_builds_and_typechecks () =
  let g, ra, _ = fig1_setup () in
  let main = match ra with Emodule.Func f -> f | _ -> assert false in
  let funcs =
    [
      { Ast.fname = "dname_applies"; ret = Ast.Tbool;
        params = [ (Ast.Tstring, "query"); (Ast.Tstruct "Record", "record") ];
        body = [ Ast.Sreturn (Some (Ast.Ebool false)) ]; doc = [] };
      { Ast.fname = "record_applies"; ret = Ast.Tbool;
        params = [ (Ast.Tstring, "query"); (Ast.Tstruct "Record", "record") ];
        body = [ Ast.Sreturn (Some (Ast.Ecall ("dname_applies",
                   [ Ast.Evar "query"; Ast.Evar "record" ]))) ]; doc = [] };
    ]
  in
  let program = Harness.build g ~main ~funcs in
  check "typechecks" true (Result.is_ok (Eywa_minic.Typecheck.check program));
  check "has the out struct" true (Ast.find_struct program Harness.out_struct <> None);
  check "has the entry" true (Ast.find_func program Harness.entry_name <> None);
  check "regex proto declared" true (List.length program.Ast.protos = 1)

let test_harness_symbolic_inputs () =
  let _, ra, _ = fig1_setup () in
  let main = match ra with Emodule.Func f -> f | _ -> assert false in
  let inputs = Harness.symbolic_inputs ~alphabet:[ 'a'; '.' ] main in
  check_int "two inputs (result excluded)" 2 (List.length inputs);
  check_str "first is query" "query" (fst (List.hd inputs));
  (* the struct input contains atoms for each scalar field *)
  let record_sv = List.assoc "record" inputs in
  check "record has atoms" true (List.length (Eywa_symex.Sv.atoms record_sv) > 0)

(* ----- testcase ----- *)

let tc inputs result =
  { Testcase.inputs; result = Some result; bad_input = false; error = None }

let test_testcase_dedup () =
  let a = tc [ ("x", Value.Vint 1) ] (Value.Vbool true) in
  let b = tc [ ("x", Value.Vint 1) ] (Value.Vbool false) in
  let c = tc [ ("x", Value.Vint 2) ] (Value.Vbool true) in
  check_int "dedup by inputs" 2 (List.length (Testcase.dedup [ a; b; c ]))

let test_testcase_string_canonical () =
  let a = tc [ ("s", Value.Vstring "ab\000garbage") ] (Value.Vbool true) in
  let b = tc [ ("s", Value.Vstring "ab\000other!!") ] (Value.Vbool true) in
  check "NUL-tail ignored" true (Testcase.key a = Testcase.key b)

(* The Format-based rendering [Testcase.key] used to build, kept as
   the reference the Buffer-based one is held to. *)
let rec canon_reference (v : Value.t) =
  match v with
  | Value.Vstring _ -> Printf.sprintf "%S" (Value.cstring v)
  | Value.Vstruct (n, fs) ->
      Printf.sprintf "%s{%s}" n
        (String.concat ";"
           (List.map (fun (f, w) -> f ^ "=" ^ canon_reference w) fs))
  | Value.Varray vs ->
      Printf.sprintf "[%s]"
        (String.concat ";" (List.map canon_reference (Array.to_list vs)))
  | Value.Vunit | Value.Vbool _ | Value.Vchar _ | Value.Vint _ | Value.Venum _ ->
      Value.to_string v

let key_reference (t : Testcase.t) =
  String.concat ","
    (List.map (fun (name, v) -> name ^ "=" ^ canon_reference v) t.inputs)

(* Values of every shape: chars over all of 0-255, strings with
   embedded NULs and every escape class, negative ints, enums, and
   structs and arrays nested inside each other. *)
let gen_value =
  let open QCheck2.Gen in
  let any_char = map Char.chr (int_range 0 255) in
  let str =
    string_size
      ~gen:(oneof [ any_char; return '\000'; oneofl [ '"'; '\''; '\\' ] ])
      (int_range 0 10)
  in
  let name = oneofl [ "a"; "rr"; "Type"; "x_1" ] in
  let scalar =
    oneof
      [
        return Value.Vunit;
        map (fun b -> Value.Vbool b) bool;
        map (fun c -> Value.Vchar c) any_char;
        map (fun n -> Value.Vint n) (oneof [ int; int_range (-300) 300 ]);
        map2 (fun e i -> Value.Venum (e, i)) name (int_range (-2) 9);
        map (fun s -> Value.Vstring s) str;
      ]
  in
  sized_size (int_range 0 8) @@ fix (fun self n ->
      if n <= 0 then scalar
      else
        let sub = self (n / 3) in
        oneof
          [
            scalar;
            map2
              (fun n fs -> Value.Vstruct (n, fs))
              name
              (list_size (int_range 0 3) (pair name sub));
            map
              (fun vs -> Value.Varray (Array.of_list vs))
              (list_size (int_range 0 3) sub);
          ])

let prop_key_equals_reference =
  QCheck2.Test.make ~count:500 ~name:"Testcase.key = the Format-based rendering"
    ~print:(fun inputs -> key_reference (tc inputs Value.Vunit))
    QCheck2.Gen.(
      list_size (int_range 0 4) (pair (oneofl [ "q"; "zone"; "s" ]) gen_value))
    (fun inputs ->
      let t = tc inputs Value.Vunit in
      Testcase.key t = key_reference t)

(* ----- synthesis with a canned oracle ----- *)

let canned_completion =
  {|
typedef enum { A, CNAME, DNAME } RecordType;
typedef struct { RecordType rtyp; char* name; } Record;
bool dname_applies(char* query, Record record) {
  return record.rtyp == DNAME && strcmp(query, record.name) == 0;
}
bool record_applies(char* query, Record record) {
  if (record.rtyp == DNAME) { return dname_applies(query, record); }
  return strcmp(query, record.name) == 0;
}
|}

let test_synthesis_canned () =
  let g, ra, _ = fig1_setup () in
  let oracle = Oracle.constant canned_completion in
  let config = { Pipeline.default_config with k = 2; alphabet = [ 'a'; '.' ] } in
  match Pipeline.run ~config ~oracle g ~main:ra with
  | Error e -> Alcotest.fail e
  | Ok result ->
      check "tests produced" true (List.length result.unique_tests > 0);
      check_int "both models compiled" 2 (List.length result.programs);
      check "loc bounds consistent" true (result.loc_min <= result.loc_max);
      check "has a bad-input test" true
        (List.exists (fun (t : Testcase.t) -> t.bad_input) result.unique_tests);
      (* every emitted test replays concretely to the recorded result *)
      let checked, bad = Replay_check.disagreements g result in
      check "tests replayed" true (checked > 0);
      check_str "symex agrees with concrete replay" "" (String.concat "\n" bad)

let test_synthesis_skips_bad_models () =
  let g, ra, _ = fig1_setup () in
  let oracle =
    (* fail every completion of model index 0 (request seed = base_seed),
       succeed for the rest; keyed on the request rather than a call
       counter so the oracle stays a pure function of its input and the
       test is deterministic when the k draws run on a domain pool *)
    Oracle.make ~name:"flaky" (fun req ->
        if req.Oracle.seed = Pipeline.default_config.base_seed then
          "this is not C at all {{{"
        else if contains ~needle:"int seed_marker" req.user then ""
        else canned_completion)
  in
  let config = { Pipeline.default_config with k = 2; alphabet = [ 'a' ] } in
  match Pipeline.run ~config ~oracle g ~main:ra with
  | Error e -> Alcotest.fail e
  | Ok result ->
      let failed =
        List.filter (fun (r : Pipeline.model_result) -> r.compile_error <> None)
          result.results
      in
      check_int "one model skipped" 1 (List.length failed);
      check_int "one model survived" 1 (List.length result.programs)

let test_synthesis_rejects_non_func_main () =
  let sarg = arg "s" (Etype.string_ ~maxsize:3) in
  let re = Emodule.regex_module "a*" sarg in
  let g = Graph.create () in
  check "regex main rejected" true
    (Result.is_error
       (Pipeline.run ~oracle:(Oracle.constant "") g ~main:re))

let suite =
  [
    Alcotest.test_case "etype: lowering to MiniC" `Quick test_etype_to_minic;
    Alcotest.test_case "etype: constructor validation" `Quick test_etype_validation;
    Alcotest.test_case "etype: declarations dedup and order" `Quick test_etype_declarations;
    Alcotest.test_case "etype: conflicting names rejected" `Quick test_etype_conflicting_decl;
    Alcotest.test_case "etype: default values" `Quick test_etype_default;
    Alcotest.test_case "module: shapes and validation" `Quick test_module_shapes;
    Alcotest.test_case "module: regex validation" `Quick test_regex_module_validation;
    Alcotest.test_case "graph: call edges and topo order" `Quick test_graph_edges;
    Alcotest.test_case "graph: cycles rejected" `Quick test_graph_cycle;
    Alcotest.test_case "graph: pipe validation" `Quick test_graph_pipe_validation;
    Alcotest.test_case "graph: func guards synthesized" `Quick test_graph_guards_in_order;
    Alcotest.test_case "prompt: structure matches Fig. 5" `Quick test_prompt_structure;
    Alcotest.test_case "prompt: no self prototype" `Quick test_prompt_helper_has_no_proto_of_itself;
    Alcotest.test_case "harness: builds and typechecks" `Quick test_harness_builds_and_typechecks;
    Alcotest.test_case "harness: symbolic inputs" `Quick test_harness_symbolic_inputs;
    Alcotest.test_case "testcase: dedup by inputs" `Quick test_testcase_dedup;
    Alcotest.test_case "testcase: string canonicalisation" `Quick test_testcase_string_canonical;
    QCheck_alcotest.to_alcotest prop_key_equals_reference;
    Alcotest.test_case "synthesis: canned oracle end to end" `Quick test_synthesis_canned;
    Alcotest.test_case "synthesis: compile failures skipped" `Quick test_synthesis_skips_bad_models;
    Alcotest.test_case "synthesis: main must be a Func" `Quick test_synthesis_rejects_non_func_main;
  ]
