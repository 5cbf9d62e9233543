module Term = Eywa_solver.Term
module Solve = Eywa_solver.Solve

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let bvar name = Term.fresh_var ~name Term.Sbool [| 0; 1 |]
let ivar ?(domain = Array.init 8 (fun i -> i)) name =
  Term.fresh_var ~name (Term.Sint 3) domain

(* ----- smart constructors ----- *)

let test_const_folding () =
  check "and ff" true (Term.is_false (Term.and_ Term.ff Term.tt));
  check "and tt" true (Term.is_true (Term.and_ Term.tt Term.tt));
  check "or tt" true (Term.is_true (Term.or_ Term.ff Term.tt));
  check "not" true (Term.is_false (Term.not_ Term.tt));
  check "eq fold" true (Term.is_true (Term.eq (Term.const 3) (Term.const 3)));
  check "lt fold" true (Term.is_false (Term.lt (Term.const 3) (Term.const 3)));
  check "add fold" true (Term.add (Term.const 2) (Term.const 3) = Term.const 5);
  check "mul zero" true (Term.mul (Term.const 0) (Term.var (bvar "b")) = Term.const 0);
  check "div fold" true (Term.div (Term.const 7) (Term.const 2) = Term.const 3);
  check "div by zero is total" true (Term.div (Term.const 7) (Term.const 0) = Term.const 0);
  check "mod fold" true (Term.mod_ (Term.const 7) (Term.const 2) = Term.const 1)

let test_var_identities () =
  let v = Term.var (ivar "x") in
  check "x = x folds" true (Term.is_true (Term.eq v v));
  check "x < x folds" true (Term.is_false (Term.lt v v));
  check "x <= x folds" true (Term.is_true (Term.le v v));
  check "x + 0" true (Term.add v (Term.const 0) = v);
  check "x * 1" true (Term.mul v (Term.const 1) = v);
  check "x / 1" true (Term.div v (Term.const 1) = v)

let test_ite () =
  let v = Term.var (ivar "x") in
  check "ite true" true (Term.ite Term.tt v (Term.const 0) = v);
  check "ite false" true (Term.ite Term.ff v (Term.const 9) = Term.const 9);
  check "ite same" true (Term.ite (Term.var (bvar "c")) v v = v)

let test_vars_order () =
  let a = ivar "a" and b = ivar "b" in
  let t = Term.and_ (Term.eq (Term.var a) (Term.const 1))
            (Term.eq (Term.var b) (Term.var a)) in
  let vs = Term.vars t in
  check_int "two vars" 2 (List.length vs);
  check "first occurrence order" true
    ((List.hd vs).Term.vid = a.Term.vid)

let test_eval () =
  let a = ivar "a" and b = ivar "b" in
  let env vid = if vid = a.Term.vid then 3 else if vid = b.Term.vid then 5 else 0 in
  let t = Term.add (Term.var a) (Term.mul (Term.var b) (Term.const 2)) in
  check_int "3 + 5*2" 13 (Term.eval env t);
  check_int "lt" 1 (Term.eval env (Term.lt (Term.var a) (Term.var b)));
  check_int "not" 0 (Term.eval env (Term.not_ (Term.lt (Term.var a) (Term.var b))))

let test_peval_short_circuit () =
  let a = bvar "a" in
  (* one side unknown, the other determines the result *)
  let env _ = None in
  check "and with ff" true
    (Term.peval env (Term.And (Term.var a, Term.ff)) = Some 0);
  check "or with tt" true
    (Term.peval env (Term.Or (Term.var a, Term.tt)) = Some 1);
  check "unknown stays unknown" true (Term.peval env (Term.var a) = None)

(* ----- solver ----- *)

let test_solve_simple () =
  let x = ivar "x" in
  let c = Term.eq (Term.var x) (Term.const 5) in
  match Solve.solve [ c ] with
  | Solve.Sat m -> check_int "x = 5" 5 (Solve.value m x)
  | Solve.Unsat | Solve.Unknown -> Alcotest.fail "expected sat"

let test_solve_unsat () =
  let x = ivar "x" in
  let cs = [ Term.lt (Term.var x) (Term.const 3); Term.gt (Term.var x) (Term.const 5) ] in
  check "unsat" true (Solve.solve cs = Solve.Unsat)

let test_solve_multi_var () =
  let x = ivar "x" and y = ivar "y" in
  let cs =
    [
      Term.eq (Term.add (Term.var x) (Term.var y)) (Term.const 9);
      Term.lt (Term.var x) (Term.var y);
      Term.gt (Term.var x) (Term.const 2);
    ]
  in
  match Solve.solve cs with
  | Solve.Sat m ->
      let vx = Solve.value m x and vy = Solve.value m y in
      check_int "sum" 9 (vx + vy);
      check "x < y" true (vx < vy);
      check "x > 2" true (vx > 2)
  | Solve.Unsat | Solve.Unknown -> Alcotest.fail "expected sat"

let test_solve_respects_domain () =
  let x = ivar ~domain:[| 2; 4; 6 |] "x" in
  let cs = [ Term.gt (Term.var x) (Term.const 4) ] in
  match Solve.solve cs with
  | Solve.Sat m -> check_int "only 6 fits" 6 (Solve.value m x)
  | Solve.Unsat | Solve.Unknown -> Alcotest.fail "expected sat"

let test_solve_budget () =
  (* tiny budget forces Unknown on a search that needs backtracking *)
  let vars = List.init 6 (fun i -> ivar (Printf.sprintf "v%d" i)) in
  let sum =
    List.fold_left (fun acc v -> Term.add acc (Term.var v)) (Term.const 0) vars
  in
  let cs = [ Term.eq sum (Term.const 42) ] in
  match Solve.solve ~max_decisions:3 cs with
  | Solve.Unknown -> ()
  | Solve.Sat _ | Solve.Unsat -> Alcotest.fail "expected unknown under tiny budget"

let test_empty_constraints () =
  match Solve.solve [] with
  | Solve.Sat _ -> ()
  | Solve.Unsat | Solve.Unknown -> Alcotest.fail "empty set is sat"

let test_constant_false () =
  check "constant false is unsat" true (Solve.solve [ Term.ff ] = Solve.Unsat)

let test_div_constraint () =
  let x = ivar ~domain:(Array.init 16 (fun i -> i)) "x" in
  let cs =
    [
      Term.eq (Term.div (Term.var x) (Term.const 4)) (Term.const 2);
      Term.eq (Term.mod_ (Term.var x) (Term.const 4)) (Term.const 3);
    ]
  in
  match Solve.solve cs with
  | Solve.Sat m -> check_int "x = 11" 11 (Solve.value m x)
  | Solve.Unsat | Solve.Unknown -> Alcotest.fail "expected sat"

(* ----- properties ----- *)

(* Random terms over a fixed set of variables. *)
let gen_term vars =
  let open QCheck2.Gen in
  sized @@ fix (fun self n ->
      if n <= 0 then
        oneof
          [ map Term.const (int_range (-4) 12);
            map (fun i -> Term.var (List.nth vars (i mod List.length vars)))
              (int_range 0 (List.length vars - 1)) ]
      else
        let sub = self (n / 2) in
        oneof
          [
            map Term.not_ sub;
            map2 Term.and_ sub sub;
            map2 Term.or_ sub sub;
            map2 Term.eq sub sub;
            map2 Term.lt sub sub;
            map2 Term.le sub sub;
            map2 Term.add sub sub;
            map2 Term.sub sub sub;
            map2 Term.mul sub sub;
          ])

let shared_vars = List.init 3 (fun i -> ivar (Printf.sprintf "q%d" i))

let prop_solve_sound =
  QCheck2.Test.make ~count:200 ~name:"models returned by solve satisfy the constraints"
    (gen_term shared_vars)
    (fun t ->
      match Solve.solve ~max_decisions:100_000 [ t ] with
      | Solve.Sat m -> Solve.check m [ t ]
      | Solve.Unsat | Solve.Unknown -> true)

let prop_peval_agrees_with_eval =
  QCheck2.Test.make ~count:200 ~name:"peval under a total env agrees with eval"
    (gen_term shared_vars)
    (fun t ->
      let env vid = (vid * 7 mod 5) + 1 in
      let penv vid = Some (env vid) in
      Term.peval penv t = Some (Term.eval env t))

let prop_unsat_means_no_assignment =
  QCheck2.Test.make ~count:100
    ~name:"when solve says unsat, exhaustive enumeration agrees (1 var)"
    (gen_term [ List.hd shared_vars ])
    (fun t ->
      let v = List.hd shared_vars in
      match Solve.solve [ t ] with
      | Solve.Unsat ->
          Array.for_all
            (fun value -> Term.eval (fun _ -> value) t = 0)
            v.Term.domain
      | Solve.Sat _ | Solve.Unknown -> true)

(* ----- hash-consing ----- *)

let test_hash_consing () =
  Term.with_fresh_ids (fun () ->
      let x = ivar "x" and y = ivar "y" in
      let mk () = Term.eq (Term.add (Term.var x) (Term.var y)) (Term.const 5) in
      let a = mk () and b = mk () in
      check_int "equal terms intern to the same id" (Term.intern_id a)
        (Term.intern_id b);
      let c = Term.lt (Term.var x) (Term.var y) in
      check "distinct terms intern to distinct ids" true
        (Term.intern_id a <> Term.intern_id c);
      check "memoized vars = structural vars" true
        (Term.vars a = Term.vars b && List.length (Term.vars a) = 2))

(* ----- order_vars determinism (PR-5 satellite regression) ----- *)

let test_order_vars_vid_tiebreak () =
  (* eight bool vars, each occurring once in one constraint: domain
     size and occurrence count tie for all of them, so before the fix
     the order fell back to Hashtbl.fold order over vids — an artifact
     of the stdlib hash function. Referencing them scrambled must
     still yield ascending vids. *)
  let vs = Array.init 8 (fun i -> bvar (Printf.sprintf "t%d" i)) in
  let scrambled = [ 5; 2; 7; 0; 6; 3; 1; 4 ] in
  let c =
    List.fold_left
      (fun acc i -> Term.or_ acc (Term.var vs.(i)))
      (Term.var vs.(List.hd scrambled))
      (List.tl scrambled)
  in
  let order = List.map (fun v -> v.Term.vid) (Solve.order_vars [ c ]) in
  let sorted = List.sort compare order in
  check "tied vars come out in ascending vid order" true (order = sorted);
  check_int "all eight vars ordered" 8 (List.length order);
  (* a var with more occurrences still outranks the tie *)
  let busy = bvar "busy" in
  let cs =
    [
      Term.or_ c (Term.var busy);
      Term.or_ (Term.var busy) (Term.var vs.(0));
      Term.or_ (Term.var busy) (Term.var vs.(1));
    ]
  in
  match Solve.order_vars cs with
  | first :: _ ->
      check_int "most-occurring var first" busy.Term.vid first.Term.vid
  | [] -> Alcotest.fail "expected ordered vars"

(* ----- watched solver = naive reference (PR-5 tentpole) ----- *)

(* The length of an assignment that holds every variable of [vars]. *)
let model_size vars = 1 + List.fold_left (fun n v -> max n v.Term.vid) 0 vars

let model_to_list m =
  List.filter
    (fun (_, x) -> x <> Solve.unassigned)
    (List.mapi (fun vid x -> (vid, x)) (Array.to_list m))

let outcomes_equal a b =
  match (a, b) with
  | Solve.Sat m1, Solve.Sat m2 -> model_to_list m1 = model_to_list m2
  | Solve.Unsat, Solve.Unsat | Solve.Unknown, Solve.Unknown -> true
  | _ -> false

let prop_watched_equals_naive =
  QCheck2.Test.make ~count:300
    ~name:"watched solver = naive reference (outcome, model, stats)"
    QCheck2.Gen.(
      triple
        (list_size (int_range 1 5) (gen_term shared_vars))
        (int_range 0 3) (int_range 1 2))
    (fun (cs, rotate, budget_sel) ->
      (* a tiny budget exercises Unknown parity, a large one Sat/Unsat *)
      let max_decisions = if budget_sel = 1 then 25 else 100_000 in
      let o1, s1 = Solve.solve_with_stats ~max_decisions ~rotate cs in
      let o2, s2 = Solve.solve_naive_with_stats ~max_decisions ~rotate cs in
      outcomes_equal o1 o2
      && s1.Solve.decisions = s2.Solve.decisions
      && s1.Solve.conflicts = s2.Solve.conflicts)

(* Preparing is the per-set half of the search: one prepared set
   searched at each rotation must give exactly what a fresh
   [solve_with_stats] gives there. Concretization leans on this to
   prepare each path once for all its sample solves. *)
let prop_prepared_equals_fresh =
  QCheck2.Test.make ~count:300
    ~name:"prepare once, search at rotations 0-3 = fresh solve at each"
    QCheck2.Gen.(
      pair (list_size (int_range 1 5) (gen_term shared_vars)) (int_range 1 2))
    (fun (cs, budget_sel) ->
      let max_decisions = if budget_sel = 1 then 25 else 100_000 in
      let prepared = Solve.prepare (List.map Solve.conjunct cs) in
      List.for_all
        (fun rotate ->
          let o1, s1 = Solve.search ~max_decisions ~rotate prepared in
          let o2, s2 = Solve.solve_with_stats ~max_decisions ~rotate cs in
          outcomes_equal o1 o2
          && s1.Solve.decisions = s2.Solve.decisions
          && s1.Solve.conflicts = s2.Solve.conflicts)
        [ 0; 1; 2; 3 ])

(* A hint only reorders the values the complete search visits, so it
   may change which model comes out first but never the verdict, and a
   hinted Sat model still satisfies the constraints. The executor's
   probe path depends on both halves. *)
let prop_hinted_solve_sound =
  QCheck2.Test.make ~count:300
    ~name:"hinted solve: same verdict as hint-free, models satisfy"
    QCheck2.Gen.(
      pair
        (list_size (int_range 1 5) (gen_term shared_vars))
        (list_size (int_range 0 3) (int_range (-4) 12)))
    (fun (cs, hint_vals) ->
      let hint = Array.make (model_size shared_vars) Solve.unassigned in
      List.iteri
        (fun i value ->
          let v = List.nth shared_vars (i mod List.length shared_vars) in
          hint.(v.Term.vid) <- value)
        hint_vals;
      let o1, _ = Solve.solve_with_stats ~max_decisions:100_000 ~hint cs in
      let o2, _ = Solve.solve_with_stats ~max_decisions:100_000 cs in
      match (o1, o2) with
      | Solve.Sat m, Solve.Sat _ -> Solve.check m cs
      | Solve.Unsat, Solve.Unsat | Solve.Unknown, Solve.Unknown -> true
      | _ -> false)

(* A search that finds no model visits every consistent prefix of the
   variable order and tries every value under each, whatever the value
   order: an Unsat answer's decisions and conflicts are the same at
   every rotation, with or without a hint. The symbolic executor's
   refutation table replays stored Unsat answers on this. *)
let prop_unsat_stats_order_free =
  QCheck2.Test.make ~count:500
    ~name:"Unsat stats are equal at rotations 0-3, with and without a hint"
    QCheck2.Gen.(
      pair
        (list_size (int_range 1 5) (gen_term shared_vars))
        (list_size (int_range 0 3) (int_range (-4) 12)))
    (fun (cs, hint_vals) ->
      let hint = Array.make (model_size shared_vars) Solve.unassigned in
      List.iteri
        (fun i value ->
          let v = List.nth shared_vars (i mod List.length shared_vars) in
          hint.(v.Term.vid) <- value)
        hint_vals;
      let prepared = Solve.prepare (List.map Solve.conjunct cs) in
      match Solve.search ~max_decisions:100_000 prepared with
      | Solve.Unsat, stats ->
          List.for_all
            (fun rotate ->
              List.for_all
                (fun hint ->
                  Solve.search ~max_decisions:100_000 ~rotate ?hint prepared
                  = (Solve.Unsat, stats))
                [ None; Some hint ])
            [ 0; 1; 2; 3 ]
      | (Solve.Sat _ | Solve.Unknown), _ -> true)

(* ----- the search's partial evaluator = Term.peval ----- *)

(* Raw-constructed terms, so the smart constructors fold nothing away:
   [And]/[Or] with one undetermined side, [Div]/[Mod] by a zero
   constant or a zero-valued variable, and [Ite] on an undetermined
   condition all occur. *)
let gen_raw_term vars =
  let open QCheck2.Gen in
  let leaf =
    oneof
      [ map Term.const (int_range (-2) 3);
        map (fun v -> Term.Var v) (oneofl vars) ]
  in
  sized_size (int_range 0 12) @@ fix (fun self n ->
      if n <= 0 then leaf
      else
        let sub = self (n / 2) in
        let bin k = map2 k sub sub in
        oneof
          [
            leaf;
            map (fun a -> Term.Not a) sub;
            bin (fun a b -> Term.And (a, b));
            bin (fun a b -> Term.Or (a, b));
            bin (fun a b -> Term.Eq (a, b));
            bin (fun a b -> Term.Lt (a, b));
            bin (fun a b -> Term.Le (a, b));
            bin (fun a b -> Term.Add (a, b));
            bin (fun a b -> Term.Sub (a, b));
            bin (fun a b -> Term.Mul (a, b));
            bin (fun a b -> Term.Div (a, b));
            bin (fun a b -> Term.Mod (a, b));
            map3 (fun c a b -> Term.Ite (c, a, b)) sub sub sub;
          ])

(* A partial assignment over [vars]: each slot unassigned or a small
   value (zero included, for division), and sometimes shorter than the
   largest vid, so reads past the end occur too. *)
let gen_partial vars =
  let open QCheck2.Gen in
  let size = model_size vars in
  let slot = oneof [ return Solve.unassigned; int_range (-2) 3 ] in
  int_range 0 size >>= fun len -> array_repeat len slot

let peval_reference m t =
  Term.peval
    (fun vid ->
      let x = Solve.lookup m vid in
      if x = Solve.unassigned then None else Some x)
    t

let prop_peval_equals_reference =
  QCheck2.Test.make ~count:1000
    ~name:"Solve.peval = Term.peval on raw terms under partial models"
    ~print:(fun (t, m) ->
      Printf.sprintf "%s under [%s]" (Term.to_string t)
        (String.concat ";"
           (Array.to_list
              (Array.map
                 (fun x ->
                   if x = Solve.unassigned then "_" else string_of_int x)
                 m))))
    QCheck2.Gen.(pair (gen_raw_term shared_vars) (gen_partial shared_vars))
    (fun (t, m) -> Solve.peval m t = peval_reference m t)

(* The shapes the generator is there to reach, pinned one by one. *)
let test_peval_edge_cases () =
  let x = List.nth shared_vars 0 and y = List.nth shared_vars 1 in
  let m = Array.make (1 + max x.Term.vid y.Term.vid) Solve.unassigned in
  m.(y.Term.vid) <- 0;
  let vx = Term.Var x and vy = Term.Var y in
  let same name t =
    Alcotest.(check (option int)) name (peval_reference m t) (Solve.peval m t)
  in
  same "and: unknown, false" (Term.And (vx, vy));
  same "and: false, unknown" (Term.And (vy, vx));
  same "and: unknown, true" (Term.And (vx, Term.Const 1));
  same "or: unknown, true" (Term.Or (vx, Term.Const 2));
  same "or: true, unknown" (Term.Or (Term.Const 2, vx));
  same "or: unknown, false" (Term.Or (vx, vy));
  same "div by zero" (Term.Div (Term.Const 5, vy));
  same "mod by zero" (Term.Mod (Term.Const 5, vy));
  same "div, unknown by zero" (Term.Div (vx, vy));
  same "ite: unknown condition, equal branches" (Term.Ite (vx, vy, vy));
  same "ite: known condition, unknown other branch"
    (Term.Ite (vy, vx, Term.Const 4));
  same "past the end"
    (Term.Var (Term.fresh_var ~name:"far" Term.Sbool [| 0; 1 |]))

(* ----- order_vars = the tuple sort it replaced ----- *)

(* Few distinct domain sizes and a handful of variables, so keys tie
   on size and on occurrence count and the vid decides. *)
let order_pool =
  List.map
    (fun (i, k) ->
      Term.fresh_var ~name:(Printf.sprintf "o%d" i) (Term.Sint 3)
        (Array.init k (fun j -> j)))
    [ (0, 3); (1, 2); (2, 3); (3, 5); (4, 2); (5, 3) ]

let order_reference cs =
  let occ = Hashtbl.create 16 and all = Hashtbl.create 16 in
  List.iter
    (List.iter (fun v ->
         let n = try Hashtbl.find occ v.Term.vid with Not_found -> 0 in
         Hashtbl.replace occ v.Term.vid (n + 1);
         if not (Hashtbl.mem all v.Term.vid) then Hashtbl.add all v.Term.vid v))
    (List.map Term.vars cs);
  let key v =
    (Array.length v.Term.domain, - Hashtbl.find occ v.Term.vid, v.Term.vid)
  in
  List.sort
    (fun a b -> compare (key a) (key b))
    (Hashtbl.fold (fun _ v acc -> v :: acc) all [])

let prop_order_equals_reference =
  QCheck2.Test.make ~count:300 ~name:"order_vars = tuple-sort reference"
    QCheck2.Gen.(
      list_size (int_range 0 6)
        (list_size (int_range 1 4) (oneofl order_pool)))
    (fun var_lists ->
      (* one constraint per list, mentioning its vars (repeats
         included); vids repeat across constraints *)
      let cs =
        List.map
          (fun vs ->
            List.fold_left
              (fun acc v -> Term.Or (acc, Term.Var v))
              (Term.Var (List.hd vs)) (List.tl vs))
          var_lists
      in
      List.map (fun v -> v.Term.vid) (Solve.order_vars cs)
      = List.map (fun v -> v.Term.vid) (order_reference cs))

let suite =
  [
    Alcotest.test_case "constant folding" `Quick test_const_folding;
    Alcotest.test_case "variable identities" `Quick test_var_identities;
    Alcotest.test_case "ite simplification" `Quick test_ite;
    Alcotest.test_case "vars in first-occurrence order" `Quick test_vars_order;
    Alcotest.test_case "eval" `Quick test_eval;
    Alcotest.test_case "peval short circuits" `Quick test_peval_short_circuit;
    Alcotest.test_case "solve a simple equation" `Quick test_solve_simple;
    Alcotest.test_case "detect unsat" `Quick test_solve_unsat;
    Alcotest.test_case "solve multi-variable constraints" `Quick test_solve_multi_var;
    Alcotest.test_case "solution drawn from the domain" `Quick test_solve_respects_domain;
    Alcotest.test_case "decision budget yields Unknown" `Quick test_solve_budget;
    Alcotest.test_case "empty constraint set is sat" `Quick test_empty_constraints;
    Alcotest.test_case "constant false is unsat" `Quick test_constant_false;
    Alcotest.test_case "div/mod constraints solve" `Quick test_div_constraint;
    Alcotest.test_case "hash-consing: interned ids and vars" `Quick
      test_hash_consing;
    Alcotest.test_case "order_vars breaks ties by vid" `Quick
      test_order_vars_vid_tiebreak;
    QCheck_alcotest.to_alcotest prop_solve_sound;
    QCheck_alcotest.to_alcotest prop_peval_agrees_with_eval;
    QCheck_alcotest.to_alcotest prop_unsat_means_no_assignment;
    QCheck_alcotest.to_alcotest prop_watched_equals_naive;
    QCheck_alcotest.to_alcotest prop_hinted_solve_sound;
    QCheck_alcotest.to_alcotest prop_prepared_equals_fresh;
    QCheck_alcotest.to_alcotest prop_unsat_stats_order_free;
    Alcotest.test_case "partial evaluator edge cases = Term.peval" `Quick
      test_peval_edge_cases;
    QCheck_alcotest.to_alcotest prop_peval_equals_reference;
    QCheck_alcotest.to_alcotest prop_order_equals_reference;
  ]
