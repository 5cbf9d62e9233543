type assignment = (int, int) Hashtbl.t

type stats = { decisions : int; conflicts : int }

type outcome = Sat of assignment | Unsat | Unknown

exception Budget

(* Variable ordering: smaller domain first, ties broken by occurrence
   count (more occurrences = more constraining = earlier), then by vid.
   The vid tiebreaker is load-bearing: without it, equal-keyed vars
   kept whatever order [Hashtbl.fold] produced them in, which is an
   implementation detail of the stdlib hash function — any change
   there would silently reorder the search and with it every generated
   test. *)
let order_of_vars var_lists =
  let occ = Hashtbl.create 32 in
  let bump v =
    let n = try Hashtbl.find occ v.Term.vid with Not_found -> 0 in
    Hashtbl.replace occ v.Term.vid (n + 1)
  in
  let all = Hashtbl.create 32 in
  List.iter
    (List.iter (fun v ->
         bump v;
         if not (Hashtbl.mem all v.Term.vid) then Hashtbl.add all v.Term.vid v))
    var_lists;
  let vs = Hashtbl.fold (fun _ v acc -> v :: acc) all [] in
  let key v =
    ( Array.length v.Term.domain,
      - (try Hashtbl.find occ v.Term.vid with Not_found -> 0),
      v.Term.vid )
  in
  List.sort (fun a b -> compare (key a) (key b)) vs

let order_vars constraints = order_of_vars (List.map Term.vars constraints)

(* ----- the naive reference search ----- *)

(* Re-evaluates every constraint after every assignment. Kept as the
   executable specification of the solver: the watched-constraint
   search below must agree with it bit for bit (outcome, model,
   decision and conflict counts) — it only skips re-evaluations whose
   verdict cannot have changed. The qcheck suite holds the two to that
   contract. *)
let naive_search ~max_decisions ~rotate constraints =
  let vars = Array.of_list (order_vars constraints) in
  let model : assignment = Hashtbl.create 32 in
  let decisions = ref 0 and conflicts = ref 0 in
  let env vid = Hashtbl.find_opt model vid in
  let consistent () =
    List.for_all
      (fun c -> match Term.peval env c with Some 0 -> false | _ -> true)
      constraints
  in
  let n = Array.length vars in
  let rec assign i =
    if i >= n then true
    else begin
      let v = vars.(i) in
      let dom = v.Term.domain in
      let len = Array.length dom in
      let start = Term.rotate_index ~rotate ~vid:v.Term.vid len in
      let rec try_values j =
        if j >= len then begin
          Hashtbl.remove model v.Term.vid;
          incr conflicts;
          false
        end
        else begin
          incr decisions;
          if !decisions > max_decisions then raise Budget;
          Hashtbl.replace model v.Term.vid dom.((start + j) mod len);
          if consistent () && assign (i + 1) then true else try_values (j + 1)
        end
      in
      try_values 0
    end
  in
  let outcome =
    try if assign 0 then Sat model else Unsat with Budget -> Unknown
  in
  (outcome, { decisions = !decisions; conflicts = !conflicts })

let prefilter constraints =
  (* Drop constant-true constraints up front; fail fast on constant false. *)
  let constraints = List.filter (fun c -> not (Term.is_true c)) constraints in
  if List.exists Term.is_false constraints then None else Some constraints

let solve_naive_with_stats ?(max_decisions = 2_000_000) ?(rotate = 0)
    constraints =
  match prefilter constraints with
  | None -> (Unsat, { decisions = 0; conflicts = 0 })
  | Some constraints -> naive_search ~max_decisions ~rotate constraints

(* ----- the watched-constraint search ----- *)

(* Same search, minus the wasted work: after assigning variable [v],
   only constraints that mention [v] can change their partial-eval
   verdict, so only those are re-checked ("watched constraints").
   Values that violate a unary constraint on [v] are pre-screened once
   per prepared problem instead of re-discovered on every backtrack.
   Decision and conflict counting is untouched — pruned values still
   cost a decision, exactly as they do when the naive search tries and
   rejects them — so budgets, Unknown cut-offs and value rotation are
   bit-for-bit those of the reference (the qcheck suite holds the
   hint-free search to that contract).

   The search is split in two. [prepare] does everything that depends
   on the constraint set alone: the variable order, the watcher lists
   and the unary admissible masks, all built from the free-variable
   lists the caller supplies, so no constraint is walked for its
   variables again. [search] adds what depends on the call — the value
   order, which is the only thing [?rotate] and [?hint] change — and
   runs the backtracking. A caller that solves one constraint set at
   several rotations prepares it once.

   [?hint] warm-starts the search: for each variable whose hinted
   value lies in its domain, that value is tried first and the rest of
   the domain follows in the usual rotated order. The search stays
   complete — the verdict cannot change, only the order in which the
   same assignments are visited (and with it the decision count and,
   for Sat, which model is found first). Callers that need a specific
   model order (test emission) must not pass a hint. *)

type watched = {
  cs : Term.t array;
  vars : Term.var array;  (* search order, {!order_of_vars} *)
  watchers : int list array;
      (* watchers.(i): indices of non-unary constraints mentioning
         vars.(i), in constraint order *)
  admissible : bool array option array;
      (* admissible.(i).(idx): whether domain index [idx] of vars.(i)
         passes every unary constraint on it; [None] if there is none *)
}

type prepared =
  | Refuted  (** a constraint is the constant false *)
  | Reference of Term.t list
      (** a ground-false constraint that is not syntactically [Const 0]
          (only raw-constructed terms can do this — smart constructors
          fold it away): no variable would ever watch it, so the
          reference search, whose accounting defines this case, runs *)
  | Watched of watched

let prepare conjuncts =
  let conjuncts = List.filter (fun (c, _) -> not (Term.is_true c)) conjuncts in
  if List.exists (fun (c, _) -> Term.is_false c) conjuncts then Refuted
  else
    let empty _ = None in
    if List.exists (fun (c, _) -> Term.peval empty c = Some 0) conjuncts then
      Reference (List.map fst conjuncts)
    else begin
      let cs = Array.of_list (List.map fst conjuncts) in
      let vars = Array.of_list (order_of_vars (List.map snd conjuncts)) in
      let n = Array.length vars in
      let pos = Hashtbl.create (max 16 (2 * n)) in
      Array.iteri (fun i v -> Hashtbl.replace pos v.Term.vid i) vars;
      let watchers = Array.make (max 1 n) [] in
      let unary = Array.make (max 1 n) [] in
      List.iteri
        (fun ci (_, vs) ->
          match vs with
          | [ v ] ->
              let i = Hashtbl.find pos v.Term.vid in
              unary.(i) <- ci :: unary.(i)
          | vs ->
              List.iter
                (fun v ->
                  let i = Hashtbl.find pos v.Term.vid in
                  watchers.(i) <- ci :: watchers.(i))
                vs)
        conjuncts;
      Array.iteri (fun i l -> watchers.(i) <- List.rev l) watchers;
      let admissible =
        Array.mapi
          (fun i v ->
            match unary.(i) with
            | [] -> None
            | us ->
                Some
                  (Array.map
                     (fun value ->
                       let env1 vid =
                         if vid = v.Term.vid then Some value else None
                       in
                       List.for_all
                         (fun ci -> Term.peval env1 cs.(ci) <> Some 0)
                         us)
                     v.Term.domain))
          vars
      in
      Watched { cs; vars; watchers; admissible }
    end

let search_watched ~max_decisions ~rotate ?hint w =
  let { cs; vars; watchers; admissible } = w in
  let n = Array.length vars in
  let model : assignment = Hashtbl.create 32 in
  let decisions = ref 0 and conflicts = ref 0 in
  let env vid = Hashtbl.find_opt model vid in
  (* val_order.(i).(j): the domain index tried j-th for vars.(i).
     Without a hint this is the rotated identity the naive search
     uses; a hinted value jumps to the front and the rotated order
     follows with it removed. *)
  let val_order =
    Array.map
      (fun v ->
        let dom = v.Term.domain in
        let len = Array.length dom in
        let start = Term.rotate_index ~rotate ~vid:v.Term.vid len in
        let base = Array.init len (fun j -> (start + j) mod len) in
        match hint with
        | None -> base
        | Some h -> (
            match Hashtbl.find_opt h v.Term.vid with
            | None -> base
            | Some hv ->
                let hi = ref (-1) in
                Array.iteri (fun k x -> if !hi < 0 && x = hv then hi := k) dom;
                if !hi < 0 then base
                else begin
                  let order = Array.make len !hi in
                  let k = ref 1 in
                  Array.iter
                    (fun idx ->
                      if idx <> !hi then begin
                        order.(!k) <- idx;
                        incr k
                      end)
                    base;
                  order
                end))
      vars
  in
  let rec assign i =
    if i >= n then true
    else begin
      let v = vars.(i) in
      let dom = v.Term.domain in
      let len = Array.length dom in
      let ord = val_order.(i) in
      let ok = admissible.(i) in
      let ws = watchers.(i) in
      let rec try_values j =
        if j >= len then begin
          Hashtbl.remove model v.Term.vid;
          incr conflicts;
          false
        end
        else begin
          incr decisions;
          if !decisions > max_decisions then raise Budget;
          let idx = ord.(j) in
          let allowed = match ok with None -> true | Some a -> a.(idx) in
          if not allowed then try_values (j + 1)
          else begin
            Hashtbl.replace model v.Term.vid dom.(idx);
            let consistent =
              List.for_all
                (fun ci ->
                  match Term.peval env cs.(ci) with Some 0 -> false | _ -> true)
                ws
            in
            if consistent && assign (i + 1) then true else try_values (j + 1)
          end
        end
      in
      try_values 0
    end
  in
  let outcome =
    try if assign 0 then Sat model else Unsat with Budget -> Unknown
  in
  (outcome, { decisions = !decisions; conflicts = !conflicts })

let search ?(max_decisions = 2_000_000) ?(rotate = 0) ?hint = function
  | Refuted -> (Unsat, { decisions = 0; conflicts = 0 })
  | Reference constraints -> naive_search ~max_decisions ~rotate constraints
  | Watched w -> search_watched ~max_decisions ~rotate ?hint w

let solve_with_stats ?max_decisions ?rotate ?hint constraints =
  search ?max_decisions ?rotate ?hint
    (prepare (List.map (fun c -> (c, Term.vars c)) constraints))

let solve ?max_decisions ?rotate constraints =
  fst (solve_with_stats ?max_decisions ?rotate constraints)

let is_sat ?max_decisions constraints =
  match solve ?max_decisions constraints with
  | Sat _ -> true
  | Unsat | Unknown -> false

let value m v =
  match Hashtbl.find_opt m v.Term.vid with
  | Some x -> x
  | None -> v.Term.domain.(0)

let check m constraints =
  List.for_all (fun c -> Term.eval_var (value m) c <> 0) constraints
