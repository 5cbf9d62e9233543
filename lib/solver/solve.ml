type assignment = int array

type stats = { decisions : int; conflicts : int }

type outcome = Sat of assignment | Unsat | Unknown

exception Budget

(* No domain holds [min_int] ({!Term.fresh_var} rejects it), so it marks
   an unassigned slot; a vid past the end of the array is unassigned
   too. *)
let unassigned = min_int

let lookup (m : assignment) vid =
  if vid < Array.length m then Array.unsafe_get m vid else unassigned

(* ----- the partial evaluator ----- *)

(* [Term.peval] over an assignment, without an [option] per node or a
   closure call per variable read: an undetermined subterm raises
   [Undetermined], and only [And]/[Or] catch it, since they are the
   only nodes whose other side can still decide the result. Everywhere
   else an unknown operand makes the node unknown, as in [Term.peval];
   [Ite] evaluates only the branch its known condition picks. *)
exception Undetermined

let rec pev m (t : Term.t) =
  match t with
  | Const n -> n
  | Var v ->
      let x = lookup m v.Term.vid in
      if x = unassigned then raise_notrace Undetermined else x
  | Not a -> if pev m a = 0 then 1 else 0
  | And (a, b) -> (
      match pev m a with
      | 0 -> 0
      | _ -> if pev m b <> 0 then 1 else 0
      | exception Undetermined ->
          if pev m b = 0 then 0 else raise_notrace Undetermined)
  | Or (a, b) -> (
      match pev m a with
      | 0 -> if pev m b <> 0 then 1 else 0
      | _ -> 1
      | exception Undetermined ->
          if pev m b <> 0 then 1 else raise_notrace Undetermined)
  | Eq (a, b) -> if pev m a = pev m b then 1 else 0
  | Lt (a, b) -> if pev m a < pev m b then 1 else 0
  | Le (a, b) -> if pev m a <= pev m b then 1 else 0
  | Add (a, b) -> pev m a + pev m b
  | Sub (a, b) -> pev m a - pev m b
  | Mul (a, b) -> pev m a * pev m b
  | Div (a, b) ->
      let x = pev m a in
      let y = pev m b in
      if y = 0 then 0 else x / y
  | Mod (a, b) ->
      let x = pev m a in
      let y = pev m b in
      if y = 0 then 0 else x mod y
  | Ite (c, a, b) -> if pev m c <> 0 then pev m a else pev m b

let peval m t = match pev m t with n -> Some n | exception Undetermined -> None

(* Whether [c] is already false under the partial model [m]: the only
   question the search asks. *)
let refuted m c =
  match pev m c with 0 -> true | _ -> false | exception Undetermined -> false

(* Variable ordering: smaller domain first, ties broken by occurrence
   count (more occurrences = more constraining = earlier), then by vid.
   The vid tiebreaker is load-bearing: without it, equal-keyed vars
   kept whatever order [Hashtbl.fold] produced them in, which is an
   implementation detail of the stdlib hash function — any change
   there would silently reorder the search and with it every generated
   test. Occurrences are counted in one pass into a vid-indexed array,
   which also picks out each vid's first [var]; the comparator then
   reads only ints. Also returns one more than the largest vid: the
   length of an assignment that can hold every variable. *)
let order_of_vars var_lists =
  let size =
    List.fold_left
      (List.fold_left (fun n v -> max n (v.Term.vid + 1)))
      0 var_lists
  in
  let occ = Array.make size 0 in
  let distinct = ref [] in
  List.iter
    (List.iter (fun v ->
         let vid = v.Term.vid in
         if occ.(vid) = 0 then distinct := v :: !distinct;
         occ.(vid) <- occ.(vid) + 1))
    var_lists;
  let vs = Array.of_list !distinct in
  Array.sort
    (fun a b ->
      let c =
        Int.compare (Array.length a.Term.domain) (Array.length b.Term.domain)
      in
      if c <> 0 then c
      else
        let c = Int.compare occ.(b.Term.vid) occ.(a.Term.vid) in
        if c <> 0 then c else Int.compare a.Term.vid b.Term.vid)
    vs;
  (vs, size)

let order_vars constraints =
  Array.to_list (fst (order_of_vars (List.map Term.vars constraints)))

(* ----- the naive reference search ----- *)

(* Re-evaluates every constraint after every assignment. Kept as the
   executable specification of the solver: the watched-constraint
   search below must agree with it bit for bit (outcome, model,
   decision and conflict counts) — it only skips re-evaluations whose
   verdict cannot have changed. The qcheck suite holds the two to that
   contract. *)
let naive_search ~max_decisions ~rotate constraints =
  let vars, size = order_of_vars (List.map Term.vars constraints) in
  let model = Array.make size unassigned in
  let decisions = ref 0 and conflicts = ref 0 in
  let env vid =
    let x = lookup model vid in
    if x = unassigned then None else Some x
  in
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
          model.(v.Term.vid) <- unassigned;
          incr conflicts;
          false
        end
        else begin
          incr decisions;
          if !decisions > max_decisions then raise Budget;
          model.(v.Term.vid) <- dom.((start + j) mod len);
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
  size : int;  (* assignment length: one more than the largest vid *)
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
  else if List.exists (fun (c, _) -> refuted [||] c) conjuncts then
    Reference (List.map fst conjuncts)
  else begin
    let cs = Array.of_list (List.map fst conjuncts) in
    let vars, size = order_of_vars (List.map snd conjuncts) in
    let n = Array.length vars in
    let pos = Array.make size 0 in
    Array.iteri (fun i v -> pos.(v.Term.vid) <- i) vars;
    let watchers = Array.make (max 1 n) [] in
    let unary = Array.make (max 1 n) [] in
    List.iteri
      (fun ci (_, vs) ->
        match vs with
        | [ v ] ->
            let i = pos.(v.Term.vid) in
            unary.(i) <- ci :: unary.(i)
        | vs ->
            List.iter
              (fun v ->
                let i = pos.(v.Term.vid) in
                watchers.(i) <- ci :: watchers.(i))
              vs)
      conjuncts;
    Array.iteri (fun i l -> watchers.(i) <- List.rev l) watchers;
    (* one scratch assignment for every mask: each variable is set to
       each of its values in turn and cleared again *)
    let scratch = Array.make size unassigned in
    let admissible =
      Array.mapi
        (fun i v ->
          match unary.(i) with
          | [] -> None
          | us ->
              let vid = v.Term.vid in
              let mask =
                Array.map
                  (fun value ->
                    scratch.(vid) <- value;
                    List.for_all (fun ci -> not (refuted scratch cs.(ci))) us)
                  v.Term.domain
              in
              scratch.(vid) <- unassigned;
              Some mask)
        vars
    in
    Watched { cs; vars; size; watchers; admissible }
  end

(* Whether no constraint in [ws] is refuted under [model]. *)
let rec consistent model cs = function
  | [] -> true
  | ci :: ws ->
      (not (refuted model (Array.unsafe_get cs ci))) && consistent model cs ws

let search_watched ~max_decisions ~rotate ?hint w =
  let { cs; vars; size; watchers; admissible } = w in
  let n = Array.length vars in
  let model = Array.make size unassigned in
  let decisions = ref 0 and conflicts = ref 0 in
  (* The domain index tried j-th for vars.(i) is computed, not looked
     up. Without a hint it is the rotated identity the naive search
     uses, (start + j) mod len. A hinted value, at position p of that
     rotated order, jumps to the front and the rest follows with it
     removed: try j >= 1 takes position j - 1 while j - 1 < p, and
     position j after. hint_pos.(i) is p, or -1 when vars.(i) has no
     hinted value in its domain. *)
  let hint_pos =
    match hint with
    | None -> [||]
    | Some h ->
        Array.map
          (fun v ->
            let hv = lookup h v.Term.vid in
            if hv = unassigned then -1
            else
              let dom = v.Term.domain in
              match Array.find_index (Int.equal hv) dom with
              | None -> -1
              | Some hi ->
                  let len = Array.length dom in
                  let start = Term.rotate_index ~rotate ~vid:v.Term.vid len in
                  (hi - start + len) mod len)
          vars
  in
  let rec assign i =
    i >= n
    ||
    let v = vars.(i) in
    let start = Term.rotate_index ~rotate ~vid:v.Term.vid (Array.length v.Term.domain) in
    try_values i start (match hint with None -> -1 | Some _ -> hint_pos.(i)) 0
  and try_values i start p j =
    let v = vars.(i) in
    let dom = v.Term.domain in
    let len = Array.length dom in
    if j >= len then begin
      model.(v.Term.vid) <- unassigned;
      incr conflicts;
      false
    end
    else begin
      incr decisions;
      if !decisions > max_decisions then raise Budget;
      let pos = if p < 0 || j > p then j else if j = 0 then p else j - 1 in
      let idx = if start + pos >= len then start + pos - len else start + pos in
      let allowed =
        match admissible.(i) with None -> true | Some a -> a.(idx)
      in
      if not allowed then try_values i start p (j + 1)
      else begin
        model.(v.Term.vid) <- dom.(idx);
        (consistent model cs watchers.(i) && assign (i + 1))
        || try_values i start p (j + 1)
      end
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

let value m v =
  let x = lookup m v.Term.vid in
  if x = unassigned then v.Term.domain.(0) else x

let check m constraints =
  List.for_all (fun c -> Term.eval_var (value m) c <> 0) constraints
