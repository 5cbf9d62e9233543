(* State graphs and the differential-testing harness. *)

module Stategraph = Eywa_stategraph.Stategraph
module Difftest = Eywa_difftest.Difftest

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ----- state graphs ----- *)

let linear =
  Stategraph.of_list
    [ (("A", "x"), "B"); (("B", "y"), "C"); (("C", "z"), "D") ]

let branching =
  Stategraph.of_list
    [
      (("S", "a"), "T"); (("S", "b"), "U"); (("T", "c"), "V"); (("U", "d"), "V");
      (("V", "e"), "S");
    ]

let test_graph_step () =
  check "edge" true (Stategraph.step linear ~state:"A" ~input:"x" = Some "B");
  check "missing" true (Stategraph.step linear ~state:"A" ~input:"y" = None)

let test_graph_states () =
  check_int "four states" 4 (List.length (Stategraph.states linear))

let test_graph_bfs_shortest () =
  check "trivial" true (Stategraph.path_to linear ~start:"A" ~goal:"A" = Some []);
  check "one hop" true (Stategraph.path_to linear ~start:"A" ~goal:"B" = Some [ "x" ]);
  check "full chain" true
    (Stategraph.path_to linear ~start:"A" ~goal:"D" = Some [ "x"; "y"; "z" ]);
  check "unreachable" true (Stategraph.path_to linear ~start:"D" ~goal:"A" = None)

let test_graph_bfs_is_shortest () =
  let g =
    Stategraph.of_list
      [
        (("A", "long1"), "M"); (("M", "long2"), "Z"); (("A", "short"), "Z");
      ]
  in
  check "shortest wins" true (Stategraph.path_to g ~start:"A" ~goal:"Z" = Some [ "short" ])

let test_graph_cycles_terminate () =
  check "cycle handled" true
    (Stategraph.path_to branching ~start:"S" ~goal:"V" <> None);
  check_int "reachable set" 4 (List.length (Stategraph.reachable branching ~start:"S"))

let test_graph_duplicate_keys () =
  let g = Stategraph.of_list [ (("A", "x"), "B"); (("A", "x"), "C") ] in
  check "first binding wins" true (Stategraph.step g ~state:"A" ~input:"x" = Some "B")

(* ----- difftest ----- *)

let obs impl fields = { Difftest.impl; fields }

let test_majority () =
  check "plain majority" true
    (Difftest.field_majority [ ("a", "x"); ("b", "x"); ("c", "y") ] = "x");
  check "tie breaks to smaller" true
    (Difftest.field_majority [ ("a", "x"); ("b", "y") ] = "x")

let test_compare_all () =
  let observations =
    [
      obs "a" [ ("rcode", "NOERROR"); ("aa", "true") ];
      obs "b" [ ("rcode", "NOERROR"); ("aa", "true") ];
      obs "c" [ ("rcode", "NXDOMAIN"); ("aa", "true") ];
    ]
  in
  match Difftest.compare_all observations with
  | [ d ] ->
      check "dissenter named" true (d.Difftest.d_impl = "c");
      check "field named" true (d.Difftest.d_field = "rcode");
      check "got" true (d.Difftest.d_got = "NXDOMAIN");
      check "majority" true (d.Difftest.d_majority = "NOERROR")
  | ds -> Alcotest.failf "expected one disagreement, got %d" (List.length ds)

let test_compare_all_agreement () =
  let observations = [ obs "a" [ ("f", "1") ]; obs "b" [ ("f", "1") ] ] in
  check "no disagreements" true (Difftest.compare_all observations = [])

let test_compare_single_observation () =
  check "single observation vacuous" true
    (Difftest.compare_all [ obs "a" [ ("f", "1") ] ] = [])

let disagreement impl field got majority =
  { Difftest.d_impl = impl; d_field = field; d_got = got; d_majority = majority }

(* Implementations that share a run share its field list; each still
   votes once. *)
let test_compare_all_shared_field_lists () =
  let x = [ ("rcode", "NXDOMAIN"); ("answer", "1") ] in
  let y = [ ("rcode", "NOERROR"); ("answer", "1") ] in
  let z = [ ("rcode", "SERVFAIL"); ("answer", "2") ] in
  (* rcode: NXDOMAIN (x, twice) ties NOERROR (y, twice), and the tie
     goes to the smaller value even though x is seen first; answer: "1"
     has four votes across two lists *)
  check "tie to the smallest, disagreements by field then observation" true
    (Difftest.compare_all [ obs "a" x; obs "b" y; obs "c" x; obs "d" y; obs "e" z ]
    = [
        disagreement "a" "rcode" "NXDOMAIN" "NOERROR";
        disagreement "c" "rcode" "NXDOMAIN" "NOERROR";
        disagreement "e" "rcode" "SERVFAIL" "NOERROR";
        disagreement "e" "answer" "2" "1";
      ]);
  (* votes sum across lists that agree on a field: NOERROR has one vote
     from each of two lists, NXDOMAIN two from one shared list *)
  let p = [ ("rcode", "NOERROR"); ("answer", "1") ] in
  let q = [ ("rcode", "NOERROR"); ("answer", "2") ] in
  let r = [ ("rcode", "NXDOMAIN"); ("answer", "1") ] in
  check "votes sum across lists" true
    (Difftest.compare_all [ obs "a" p; obs "b" q; obs "c" r; obs "d" r ]
    = [
        disagreement "c" "rcode" "NXDOMAIN" "NOERROR";
        disagreement "d" "rcode" "NXDOMAIN" "NOERROR";
        disagreement "b" "answer" "2" "1";
      ])

(* ----- attribution over synthetic engines ----- *)

module Quirkset = Eywa_quirkset.Quirkset

(* B = [q] shares A's run under [q; a], which consulted only q. Removing
   q from B must serve B's own set without q, [], not A's, [a]. *)
let test_attribute_removes_from_own_set () =
  let serve set = Quirkset.has set "q" || Quirkset.has set "a" in
  let impls = [ ("ref", []); ("A", [ "q"; "a" ]); ("B", [ "q" ]) ] in
  let suspects _ = List.map fst impls in
  let render b = [ ("out", string_of_bool b) ] in
  let prepare () = Some serve in
  let naive = Difftest_naive.attribute ~suspects ~impls ~render ~prepare [ () ] in
  check "full serve confirms (B, q)" true (naive = [ ("B", "q") ]);
  check "memoized attribution equals the full serve" true
    (Difftest.attribute ~jobs:1 ~suspects ~impls ~render ~prepare [ () ] = naive)

(* Once only B has an untried quirk, a test whose B run consults none
   of B's untried quirks cannot confirm a pair: it serves the reference
   and B's run, never A's, and is not voted on. *)
type staged = First | Filler | Later

let test_attribute_serves_only_open_suspects () =
  let impls = [ ("ref", []); ("A", [ "a" ]); ("B", [ "b"; "c" ]) ] in
  let first set =
    if Quirkset.has set "a" then 1 else if Quirkset.has set "c" then 2 else 0
  in
  let later set =
    if Quirkset.has set "c" then 1 else if Quirkset.has set "a" then 2 else 0
  in
  let later_serves = Atomic.make 0 in
  let prepare = function
    | First -> Some first
    | Filler -> None
    | Later ->
        Some
          (fun set ->
            Atomic.incr later_serves;
            later set)
  in
  (* the first chunk confirms (A, a) and (B, c); the second holds Later *)
  let tests =
    (First :: List.init (Difftest.attribute_chunk - 1) (fun _ -> Filler)) @ [ Later ]
  in
  let render v = [ ("out", string_of_int v) ] in
  let suspects = Difftest.dissenters in
  let naive = Difftest_naive.attribute ~suspects ~impls ~render ~prepare tests in
  check "the first test confirms (A, a) and (B, c)" true
    (naive = [ ("A", "a"); ("B", "c") ]);
  Atomic.set later_serves 0;
  check "lazy attribution equals the full serve" true
    (Difftest.attribute ~jobs:1 ~suspects ~impls ~render ~prepare tests = naive);
  check_int "Later serves the reference and B only" 2 (Atomic.get later_serves)

let prop_quirkset_mem =
  let copy s = Bytes.to_string (Bytes.of_string s) in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:500
       ~name:"Quirkset.mem = List.mem, over ints and over run-time strings"
       QCheck2.Gen.(
         pair
           (pair (int_range (-3) 3) (list_size (int_range 0 6) (int_range (-3) 3)))
           (let s = oneofl [ "a"; "b"; "c" ] in
            pair s (list_size (int_range 0 6) s)))
       (fun ((i, is), (q, qs)) ->
         (* fresh copies: structurally equal strings, physically distinct *)
         let q = copy q and qs = List.map copy qs in
         Quirkset.mem i is = List.mem i is && Quirkset.mem q qs = List.mem q qs))

(* Every production quirk is a constant constructor, so {!Quirkset.mem}
   takes its [==] path on all of them. *)
let test_catalog_quirks_immediate () =
  let immediate q = Obj.is_int (Obj.repr q) in
  check "DNS" true
    (List.for_all immediate Eywa_dns.Lookup.all_quirks
    && List.for_all
         (fun (_, b) -> immediate b.Eywa_dns.Impls.quirk)
         Eywa_dns.Impls.bug_catalog);
  check "BGP" true
    (List.for_all immediate Eywa_bgp.Quirks.all
    && List.for_all
         (fun (_, b) -> immediate b.Eywa_bgp.Impls.quirk)
         Eywa_bgp.Impls.bug_catalog);
  check "SMTP" true
    (List.for_all
       (fun (_, b) -> immediate b.Eywa_smtp.Impls.quirk)
       Eywa_smtp.Impls.bug_catalog);
  check "TCP" true
    (List.for_all
       (fun (_, b) -> immediate b.Eywa_tcp.Impls.quirk)
       Eywa_tcp.Impls.bug_catalog)

(* An engine that consults quirks down a decision tree, so its outcome
   depends on the quirk set only through the quirks on its path. *)
type tree = Leaf of int | Ask of int * tree * tree

let rec serve_tree tree set =
  match tree with
  | Leaf v -> v
  | Ask (q, yes, no) -> serve_tree (if Quirkset.has set q then yes else no) set

let gen_tree =
  QCheck2.Gen.(
    sized_size (int_bound 4)
    @@ fix (fun self n ->
           let leaf = map (fun v -> Leaf v) (int_bound 2) in
           if n = 0 then leaf
           else
             frequency
               [
                 (1, leaf);
                 (3, map3 (fun q y n -> Ask (q, y, n)) (int_bound 3) (self (n - 1)) (self (n - 1)));
               ]))

let prop_attribute_on_decision_trees =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:300
       ~name:"memoized observe and attribute = full serve, on decision-tree engines"
       QCheck2.Gen.(
         triple
           (list_repeat 4 (list_size (int_bound 4) (int_bound 3)))
           (list_size (int_range 1 6) gen_tree)
           bool)
       (fun (quirk_sets, trees, all_suspects) ->
         let impls =
           ("ref", []) :: List.mapi (fun i qs -> (Printf.sprintf "i%d" i, qs)) quirk_sets
         in
         let suspects =
           if all_suspects then fun _ -> List.map fst impls else Difftest.dissenters
         in
         let render v = [ ("out", string_of_int v) ] in
         let prepare tree = Some (serve_tree tree) in
         List.for_all
           (fun tree ->
             Difftest.observe ~impls ~render (serve_tree tree)
             = Difftest_naive.observe ~impls ~render (serve_tree tree))
           trees
         && Difftest.attribute ~jobs:1 ~suspects ~impls ~render ~prepare trees
            = Difftest_naive.attribute ~suspects ~impls ~render ~prepare trees))

let test_accum_and_report () =
  let acc = Difftest.create () in
  (* same root cause twice, plus one clean test *)
  let bad () =
    [ obs "a" [ ("f", "1") ]; obs "b" [ ("f", "1") ]; obs "c" [ ("f", "2") ] ]
  in
  ignore (Difftest.record acc (bad ()));
  ignore (Difftest.record acc (bad ()));
  ignore
    (Difftest.record acc [ obs "a" [ ("f", "1") ]; obs "b" [ ("f", "1") ] ]);
  let report = Difftest.report acc in
  check_int "three tests" 3 report.Difftest.total_tests;
  check_int "two disagreeing" 2 report.Difftest.disagreeing_tests;
  check_int "one unique tuple" 1 (List.length report.Difftest.tuples);
  (match report.Difftest.tuples with
  | [ (_, n) ] -> check_int "seen twice" 2 n
  | _ -> Alcotest.fail "tuple counts wrong");
  check "impl list" true (Difftest.impls_in_report report = [ "c" ]);
  check_int "tuples for c" 1 (List.length (Difftest.tuples_for report "c"))

let test_report_ordering () =
  let acc = Difftest.create () in
  let mk impl v = obs impl [ ("f", v) ] in
  (* tuple (c,2) appears twice, (c,3) once *)
  ignore (Difftest.record acc [ mk "a" "1"; mk "b" "1"; mk "c" "2" ]);
  ignore (Difftest.record acc [ mk "a" "1"; mk "b" "1"; mk "c" "2" ]);
  ignore (Difftest.record acc [ mk "a" "1"; mk "b" "1"; mk "c" "3" ]);
  let report = Difftest.report acc in
  match report.Difftest.tuples with
  | (first, n1) :: (_, n2) :: _ ->
      check "most frequent first" true (n1 >= n2);
      check "frequent tuple is the x2" true (first.Difftest.d_got = "2")
  | _ -> Alcotest.fail "expected two tuples"

let prop_majority_is_a_value =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:200 ~name:"majority is one of the observed values"
       QCheck2.Gen.(list_size (int_range 1 6) (oneofl [ "x"; "y"; "z" ]))
       (fun values ->
         let pairs = List.mapi (fun i v -> (Printf.sprintf "i%d" i, v)) values in
         List.mem (Difftest.field_majority pairs) values))

let prop_dissenters_disagree =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:200
       ~name:"every reported dissenter's value differs from the majority"
       QCheck2.Gen.(list_size (int_range 2 6) (oneofl [ "x"; "y"; "z" ]))
       (fun values ->
         let observations =
           List.mapi (fun i v -> obs (Printf.sprintf "i%d" i) [ ("f", v) ]) values
         in
         List.for_all
           (fun d -> d.Difftest.d_got <> d.Difftest.d_majority)
           (Difftest.compare_all observations)))

let suite =
  [
    Alcotest.test_case "stategraph: step" `Quick test_graph_step;
    Alcotest.test_case "stategraph: states" `Quick test_graph_states;
    Alcotest.test_case "stategraph: BFS paths" `Quick test_graph_bfs_shortest;
    Alcotest.test_case "stategraph: BFS is shortest" `Quick test_graph_bfs_is_shortest;
    Alcotest.test_case "stategraph: cycles" `Quick test_graph_cycles_terminate;
    Alcotest.test_case "stategraph: duplicate keys" `Quick test_graph_duplicate_keys;
    Alcotest.test_case "difftest: majority" `Quick test_majority;
    Alcotest.test_case "difftest: disagreements" `Quick test_compare_all;
    Alcotest.test_case "difftest: agreement" `Quick test_compare_all_agreement;
    Alcotest.test_case "difftest: single observation" `Quick test_compare_single_observation;
    Alcotest.test_case "difftest: vote over shared field lists" `Quick
      test_compare_all_shared_field_lists;
    Alcotest.test_case "difftest: attribution removes a quirk from the own set" `Quick
      test_attribute_removes_from_own_set;
    Alcotest.test_case "difftest: attribution serves only suspects with an untried quirk"
      `Quick test_attribute_serves_only_open_suspects;
    prop_quirkset_mem;
    Alcotest.test_case "quirkset: every catalog quirk is immediate" `Quick
      test_catalog_quirks_immediate;
    prop_attribute_on_decision_trees;
    Alcotest.test_case "difftest: accumulate and report" `Quick test_accum_and_report;
    Alcotest.test_case "difftest: report ordering" `Quick test_report_ordering;
    prop_majority_is_a_value;
    prop_dissenters_disagree;
  ]
