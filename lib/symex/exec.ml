module Term = Eywa_solver.Term
module Solve = Eywa_solver.Solve
module Ast = Eywa_minic.Ast
module Value = Eywa_minic.Value

type config = {
  max_paths : int;
  max_steps : int;
  timeout : float;
  max_solver_decisions : int;
  string_bound : int;
  samples_per_path : int;
}

let default_config =
  {
    max_paths = 4096;
    max_steps = 20_000;
    timeout = 30.0;
    max_solver_decisions = 200_000;
    string_bound = 8;
    samples_per_path = 1;
  }

type path = {
  model : Solve.assignment;
  pc : Term.t list;
  samples : Solve.assignment array;
  ret : Sv.t;
  error : string option;
}

let step_budget_error = "step budget exhausted"

type stats = {
  paths_completed : int;
  paths_pruned : int;
  paths_unknown : int;
  solver_calls : int;
  solver_decisions : int;
  model_reuses : int;
  timed_out : bool;
  ticks_used : int;
}

let stats_columns =
  [
    ("paths_completed", fun s -> s.paths_completed);
    ("paths_pruned", fun s -> s.paths_pruned);
    ("paths_unknown", fun s -> s.paths_unknown);
    ("solver_calls", fun s -> s.solver_calls);
    ("solver_decisions", fun s -> s.solver_decisions);
    ("model_reuses", fun s -> s.model_reuses);
    ("timed_out", fun s -> Bool.to_int s.timed_out);
    ("ticks_used", fun s -> s.ticks_used);
  ]

let stats_of_columns = function
  | [ paths_completed; paths_pruned; paths_unknown; solver_calls;
      solver_decisions; model_reuses; timed_out; ticks_used ] ->
      Some
        { paths_completed; paths_pruned; paths_unknown; solver_calls;
          solver_decisions; model_reuses; timed_out = timed_out <> 0;
          ticks_used }
  | _ -> None

(* ----- the refutation table ----- *)

(* Slices proved Unsat, keyed by the intern ids of their conjuncts in
   slice order, with the decision count of the search that proved it
   (the one stat the executor reads). The table lives as long as the
   intern table (a {!Term.scope_local}): the synthesis pipeline keeps
   one per pool worker for a whole run, so a slice that one draft
   refuted answers the same probe in the drafts after it. Replaying the
   stored answer is exact: an Unsat search's decisions and conflicts do
   not depend on the rotation or the hint (see
   {!Solve.solve_with_stats}), and the search is a function of the
   constraints alone, which equal ids name. Only Unsat answers are
   stored: a Sat model depends on the hint. [reused] counts the probes
   the table answered, an environment figure (it depends on which
   drafts shared a worker), never part of {!stats}. *)
type refutations = { table : Packed_map.t; mutable reused : int }

let refutations =
  Term.scope_local (fun () -> { table = Packed_map.create 1024; reused = 0 })

let refutations_reused () = (refutations ()).reused

type ctx = {
  program : Ast.program;
  config : config;
  natives : (string * (Sv.t list -> Sv.t)) list;
  refuted : refutations;
  mutable checks : int;
  mutable results : path list;
  mutable completed : int;
  mutable pruned : int;
  mutable unknown : int;
  mutable solver_calls : int;
  mutable solver_decisions : int;
  mutable model_reuses : int;
  mutable stop : bool;
  mutable timed_out : bool;
}

module Ids = Set.Make (Int)

(* A path-condition conjunct as the solver takes it (its free variables
   and strictness, {!Solve.conjunct}) with its {!Term.intern_id}, all
   worked out once, when the conjunct is consed onto a path: slicing,
   solving and the refutation table never walk a conjunct again. *)
type conjunct = { c : Solve.conjunct; id : int }

let conjunct t = { c = Solve.conjunct t; id = Term.intern_id t }

type st = {
  pc : conjunct list;
  ids : Ids.t;  (* the [id]s of the conjuncts of [pc] *)
  model : Solve.assignment option;
      (* a model of [pc], from the probe that proved it sat; [None]
         only at the root *)
  scopes : (string * Sv.t) list list;
  steps : int;
}

(* One budget-second buys [ticks_per_second] exploration ticks. Every
   budget probe costs one tick; every solver call costs
   decisions * (1 + pc size) / [work_per_tick] ticks — the search
   re-evaluates the whole path condition per decision, so that product
   tracks its real cost. Both rates are calibrated to roughly one
   wall-clock second per budget-second on a commodity core. A wall
   clock here would make a timed-out model's test set depend on
   machine speed and pool contention; the tick budget keeps the
   paper's Klee-budget shape — heavy models still cut off, reported as
   [timed_out] — while staying a deterministic function of the inputs
   alone, so jobs=1 and jobs=N agree. *)
let ticks_per_second = 50_000.
let work_per_tick = 600

let check_budget ctx =
  if not ctx.stop then begin
    ctx.checks <- ctx.checks + 1;
    if ctx.completed >= ctx.config.max_paths then ctx.stop <- true
    else if float_of_int ctx.checks > ctx.config.timeout *. ticks_per_second
    then begin
      ctx.stop <- true;
      ctx.timed_out <- true
    end
  end;
  ctx.stop

let charge_solver ctx ~decisions pc =
  ctx.checks <- ctx.checks + (decisions * (1 + List.length pc) / work_per_tick)

(* The slice of [head :: parent] that can decide its satisfiability
   when [parent] is already known sat: [head] plus every parent
   conjunct transitively sharing a variable with it. Constraints
   outside the slice mention none of its variables, so they and the
   slice are satisfied or refuted independently — and the ones outside
   are a sub-conjunction of the sat parent, hence sat. Slice order is a
   pure function of the pc list (fixpoint over it in list order), never
   of hash order; each conjunct carries its variables, so the walk
   never re-lists them. *)
let slice_for head parent =
  let vs = Hashtbl.create 16 in
  let add_vars = List.iter (fun v -> Hashtbl.replace vs v.Term.vid ()) in
  add_vars head.c.vars;
  let touches k = List.exists (fun v -> Hashtbl.mem vs v.Term.vid) k.c.vars in
  let picked = ref [] in
  let remaining = ref parent in
  let changed = ref true in
  while !changed do
    changed := false;
    remaining :=
      List.filter
        (fun c ->
          if touches c then begin
            picked := c :: !picked;
            add_vars c.c.vars;
            changed := true;
            false
          end
          else true)
        !remaining
  done;
  head :: List.rev !picked

(* A slice model extended with the parent model's values for the
   variables outside the slice satisfies the whole pc: slice conjuncts
   see only slice variables (all assigned by the slice solve), the rest
   see only variables the parent model already satisfied them on. So
   the model a path carries, with [domain.(0)] defaults for missing
   variables, always satisfies its pc, which is what the reuse check
   below leans on. *)
let combine_models slice_model parent_model =
  match parent_model with
  | None -> slice_model
  | Some pm ->
      let len = max (Array.length pm) (Array.length slice_model) in
      let t = Array.make len Solve.unassigned in
      Array.blit pm 0 t 0 (Array.length pm);
      Array.iteri
        (fun vid x -> if x <> Solve.unassigned then t.(vid) <- x)
        slice_model;
      t

(* The slice's conjunct ids, each as a little-endian base-128 varint:
   prefix-free, so distinct id sequences give distinct keys. *)
let slice_key slice =
  let b = Buffer.create 16 in
  let rec put n =
    if n < 0x80 then Buffer.add_char b (Char.unsafe_chr n)
    else begin
      Buffer.add_char b (Char.unsafe_chr (n land 0x7f lor 0x80));
      put (n lsr 7)
    end
  in
  List.iter (fun k -> put k.id) slice;
  Buffer.contents b

(* The probe's search of [slice], or the table's answer for it: the
   outcome and the search's decision count. A stored refutation within
   this run's decision budget is the answer the search would give. *)
let search_slice ctx ~known slice =
  let max_decisions = ctx.config.max_solver_decisions in
  let key = slice_key slice in
  match Packed_map.find ctx.refuted.table key with
  | Some decisions when decisions <= max_decisions ->
      ctx.refuted.reused <- ctx.refuted.reused + 1;
      (Solve.Unsat, decisions)
  | Some _ | None ->
      let outcome, { Solve.decisions; _ } =
        Solve.search ?hint:known ~max_decisions
          (Solve.prepare (List.map (fun k -> k.c) slice))
      in
      (match outcome with
      | Solve.Unsat -> Packed_map.add ctx.refuted.table key decisions
      | Solve.Sat _ | Solve.Unknown -> ());
      (outcome, decisions)

(* Branch-feasibility probe of [head :: parent]; [known] is the model
   the path carries for [parent]. Depth-first search extends a path
   only from a pc that a probe proved sat, so [parent] is sat whenever
   it is empty or has a model, and the probe is the parent-model
   probe: (1) reuse [known] if it also satisfies [head] — the usual
   case: of a branch's two probes (c and not c), the parent model
   decides at least one; otherwise (2) solve only the head-connected
   slice ({!slice_for} — the rest of the pc is a sub-conjunction of
   the sat parent and shares no variable with the slice), hinted by
   [known] (it already satisfies every conjunct but [head], so the
   hinted walk lands almost immediately; the search stays complete,
   so the verdict is unchanged), and (3) combine the slice model with
   [known]. Multi-way forks are why step (2) dominates: their guards
   are mutually exclusive, so the parent model decides exactly one of
   N probes. The first probe of a multi-conjunct [assumes] has no
   parent model and solves the whole pc.

   Returns the new pc's model, or [None] when the probe is [Unsat] or
   [Unknown] (the latter counted in [unknown]). A reuse is charged one
   tick-decision, a solve its actual decision count — also when the
   refutation table answers it, with the count of the search it
   replays. *)

let is_sat ctx ~known head parent =
  ctx.solver_calls <- ctx.solver_calls + 1;
  let pc = head :: parent in
  match known with
  | Some m when Solve.check m [ head.c.term ] ->
      ctx.model_reuses <- ctx.model_reuses + 1;
      charge_solver ctx ~decisions:1 pc;
      known
  | _ -> (
      let parent_sat = parent = [] || Option.is_some known in
      let target = if parent_sat then slice_for head parent else pc in
      let outcome, decisions = search_slice ctx ~known target in
      charge_solver ctx ~decisions target;
      ctx.solver_decisions <- ctx.solver_decisions + decisions;
      match outcome with
      | Solve.Sat m -> Some (if parent_sat then combine_models m known else m)
      | Solve.Unsat -> None
      | Solve.Unknown ->
          ctx.unknown <- ctx.unknown + 1;
          None)

(* ----- environment (persistent) ----- *)

let lookup st name =
  let rec go = function
    | [] -> None
    | scope :: rest -> (
        match List.assoc_opt name scope with Some v -> Some v | None -> go rest)
  in
  go st.scopes

let declare st name v =
  match st.scopes with
  | scope :: rest -> { st with scopes = ((name, v) :: scope) :: rest }
  | [] -> assert false

let set_var st name v =
  let rec go = function
    | [] -> None
    | scope :: rest ->
        if List.mem_assoc name scope then
          Some (List.map (fun (n, w) -> if n = name then (n, v) else (n, w)) scope :: rest)
        else (
          match go rest with
          | Some rest' -> Some (scope :: rest')
          | None -> None)
  in
  match go st.scopes with
  | Some scopes -> { st with scopes }
  | None -> invalid_arg (Printf.sprintf "Exec.set_var: unbound %S" name)

let push_scope st = { st with scopes = [] :: st.scopes }
let pop_scope st =
  match st.scopes with _ :: rest -> { st with scopes = rest } | [] -> assert false

(* ----- path completion ----- *)

(* The model-producing solve. Never starts from the path's probe
   model: the [~rotate:ctx.completed] value-order rotation is what
   diversifies the emitted tests, and reusing the probe model would
   short-circuit it. The path's other samples search the same prepared
   set at rotations 1, 2, ...; like the concretization they feed, they
   are neither ticked nor counted in [stats], and one that finds no
   model falls back to the path model. *)
let complete ctx st ~ret ~error =
  if not (check_budget ctx) then begin
    ctx.solver_calls <- ctx.solver_calls + 1;
    let max_decisions = ctx.config.max_solver_decisions in
    let prepared = Solve.prepare (List.map (fun k -> k.c) st.pc) in
    let outcome, { Solve.decisions; _ } =
      Solve.search ~max_decisions ~rotate:ctx.completed prepared
    in
    ctx.solver_decisions <- ctx.solver_decisions + decisions;
    charge_solver ctx ~decisions st.pc;
    match outcome with
    | Solve.Sat model ->
        ctx.completed <- ctx.completed + 1;
        let samples =
          Array.init (max 0 (ctx.config.samples_per_path - 1)) (fun s ->
              match fst (Solve.search ~max_decisions ~rotate:(s + 1) prepared) with
              | Solve.Sat m -> m
              | Solve.Unsat | Solve.Unknown -> model)
        in
        let pc = List.map (fun k -> k.c.term) st.pc in
        ctx.results <- { model; pc; samples; ret; error } :: ctx.results
    | Solve.Unsat -> ctx.pruned <- ctx.pruned + 1
    | Solve.Unknown -> ctx.unknown <- ctx.unknown + 1
  end

exception Path_error of string

let err fmt = Printf.ksprintf (fun s -> raise (Path_error s)) fmt

(* Run a continuation, turning a path error into a completed error path
   for the state at this fork point. Between forks execution is
   deterministic, so the path condition is exact. *)
let protect ctx st f =
  try f () with Path_error m -> complete ctx st ~ret:Sv.Sunit ~error:(Some m)

(* ----- forking ----- *)

(* Implied branches. A guard that is already a conjunct of the pc
   holds on every model of it, and one whose negation is a conjunct
   fails on every model; either way [pc ∧ ¬g] (resp. [pc ∧ g]) is
   unsat, so taking the implied side without a probe is exactly the
   solver's own verdict. The path keeps its state: no conjunct is
   consed twice, so a loop re-testing one guard pays for one probe
   pair, not a growing solve per iteration (Klee's constraint-set
   simplification, reduced to its syntactic core). [Term.not_] does not fold [Not (Var _)], so
   a guard [Not d] is refuted by [d] directly. *)
let holds st g = Ids.mem (Term.intern_id g) st.ids

let child st k model = { st with pc = k :: st.pc; ids = Ids.add k.id st.ids; model }

(* A path is extended only by a sat probe, which carries the new pc's
   model into the child state. With a sat parent, one of [c] and
   [not c] is always sat, so both probes fail only when the solver
   gave up ([Unknown]), which [is_sat] has already counted. [Term.not_]
   only adds or strips one [Not], so [not c] has the variables of [c],
   in the same order, and the same strictness. *)
let branch ctx st cond kt kf =
  if not (check_budget ctx) then begin
    match cond with
    | Term.Const n -> if n <> 0 then kt st else kf st
    | c ->
        let id = Term.intern_id c in
        if Ids.mem id st.ids then kt st
        else begin
          let not_c = Term.not_ c in
          let not_id = Term.intern_id not_c in
          if Ids.mem not_id st.ids || match c with Term.Not d -> holds st d | _ -> false
          then kf st
          else begin
            let sc = Solve.conjunct c in
            let c = { c = sc; id } in
            let not_c = { c = { sc with term = not_c }; id = not_id } in
            let sat_t = is_sat ctx ~known:st.model c st.pc in
            let sat_f = is_sat ctx ~known:st.model not_c st.pc in
            match (sat_t, sat_f) with
            | Some _, Some _ ->
                let st_t = child st c sat_t in
                protect ctx st_t (fun () -> kt st_t);
                if not ctx.stop then begin
                  let st_f = child st not_c sat_f in
                  protect ctx st_f (fun () -> kf st_f)
                end
            | Some _, None -> kt (child st c sat_t)
            | None, Some _ -> kf (child st not_c sat_f)
            | None, None -> ()
          end
        end
  end

(* Multi-way fork: explore every case whose guard is feasible. A guard
   the pc already holds is taken without a probe; the others still
   probe (they are usually exclusive with it and come back unsat). *)
let fork_cases ctx st cases k =
  List.iter
    (fun (guard, payload) ->
      if not (check_budget ctx) then begin
        match guard with
        | Term.Const 0 -> ()
        | Term.Const _ -> protect ctx st (fun () -> k st payload)
        | g ->
            let id = Term.intern_id g in
            if Ids.mem id st.ids then protect ctx st (fun () -> k st payload)
            else begin
              let g = { c = Solve.conjunct g; id } in
              match is_sat ctx ~known:st.model g st.pc with
              | Some _ as model ->
                  let st' = child st g model in
                  protect ctx st' (fun () -> k st' payload)
              | None -> ()
            end
      end)
    cases

let truthy_term sv =
  match sv with
  | Sv.Sscalar (Ast.Tbool, t) -> t
  | Sv.Sscalar (_, t) -> Term.neq t (Term.const 0)
  | _ -> err "condition is not a scalar"

(* ----- string helpers ----- *)

let as_cells = function
  | Sv.Sstring cells -> cells
  | v -> err "expected a string, got %s" (Format.asprintf "%a" Sv.pp v)

(* Fork over the length of a (possibly symbolic) C string: for each
   possible first-NUL position i, the guard is
   s[0..i-1] all non-NUL and s[i] = NUL. *)
let fork_strlen ctx st cells k =
  let n = Array.length cells in
  let cases = ref [] in
  let prefix_nonnul = ref Term.tt in
  (try
     for i = 0 to n - 1 do
       let ends = Term.eq cells.(i) (Term.const 0) in
       cases := (Term.and_ !prefix_nonnul ends, i) :: !cases;
       prefix_nonnul := Term.and_ !prefix_nonnul (Term.neq cells.(i) (Term.const 0));
       if Term.is_false !prefix_nonnul then raise Exit
     done
   with Exit -> ());
  fork_cases ctx st (List.rev !cases) k

(* Fork over the sign of strcmp: walk positions, forking on equality.
   [k st sign] receives -1, 0 or 1. *)
let fork_strcmp ctx st a_cells b_cells limit k =
  let na = Array.length a_cells and nb = Array.length b_cells in
  let rec walk st i =
    if check_budget ctx then ()
    else if i >= limit then k st 0
    else begin
      let a = if i < na then a_cells.(i) else Term.const 0 in
      let b = if i < nb then b_cells.(i) else Term.const 0 in
      branch ctx st (Term.eq a b)
        (fun st ->
          (* equal here; if NUL, strings are equal overall *)
          branch ctx st (Term.eq a (Term.const 0))
            (fun st -> k st 0)
            (fun st -> walk st (i + 1)))
        (fun st ->
          branch ctx st (Term.lt a b) (fun st -> k st (-1)) (fun st -> k st 1))
    end
  in
  walk st 0

(* ----- lvalue paths ----- *)

type step = Pfield of string | Pindex of int

let rec read_path v = function
  | [] -> v
  | Pfield f :: rest -> (
      match v with
      | Sv.Sstruct (n, fields) -> (
          match List.assoc_opt f fields with
          | Some w -> read_path w rest
          | None -> err "struct %s has no field %S" n f)
      | _ -> err "field read on non-struct")
  | Pindex i :: rest -> (
      match v with
      | Sv.Sarray vs ->
          if i < 0 || i >= Array.length vs then err "array index %d out of bounds" i
          else read_path vs.(i) rest
      | Sv.Sstring cells ->
          if rest <> [] then err "indexing into a char"
          else if i < 0 || i >= Array.length cells then
            err "string index %d out of bounds" i
          else Sv.Sscalar (Ast.Tchar, cells.(i))
      | _ -> err "index read on non-array")

let rec write_path v path x =
  match (path, v) with
  | [], _ -> x
  | Pfield f :: rest, Sv.Sstruct (n, fields) ->
      if not (List.mem_assoc f fields) then err "struct %s has no field %S" n f;
      Sv.Sstruct
        (n, List.map (fun (g, w) -> if g = f then (g, write_path w rest x) else (g, w)) fields)
  | Pindex i :: rest, Sv.Sarray vs ->
      if i < 0 || i >= Array.length vs then err "array index %d out of bounds" i;
      let copy = Array.copy vs in
      copy.(i) <- write_path copy.(i) rest x;
      Sv.Sarray copy
  | [ Pindex i ], Sv.Sstring cells ->
      if i < 0 || i >= Array.length cells then err "string index %d out of bounds" i;
      let copy = Array.copy cells in
      (match x with
      | Sv.Sscalar (_, t) -> copy.(i) <- t
      | _ -> err "cannot store an aggregate into a string cell");
      Sv.Sstring copy
  | Pindex _ :: _, Sv.Sstring _ -> err "indexing into a char"
  | _, _ -> err "cannot follow lvalue path"

(* Concretize a symbolic index by forking over the feasible in-bounds
   values; out-of-range feasibility becomes an error path. *)
let fork_index ctx st idx_term size k_ok k_err =
  match idx_term with
  | Term.Const i -> if i < 0 || i >= size then k_err st i else k_ok st i
  | t ->
      let in_bounds =
        Term.and_ (Term.le (Term.const 0) t) (Term.lt t (Term.const size))
      in
      branch ctx st in_bounds
        (fun st ->
          let cases = List.init size (fun i -> (Term.eq t (Term.const i), i)) in
          fork_cases ctx st cases k_ok)
        (fun st -> k_err st (-1))

(* ----- expression evaluation (CPS) ----- *)

let enum_index program m =
  match Ast.enum_member_index program m with
  | Some (ename, i) -> (ename, i)
  | None -> err "unknown enum member %S" m

let scalar_binop op x y =
  match op with
  | Ast.Add -> Term.add x y
  | Ast.Sub -> Term.sub x y
  | Ast.Mul -> Term.mul x y
  | Ast.Eq -> Term.eq x y
  | Ast.Ne -> Term.neq x y
  | Ast.Lt -> Term.lt x y
  | Ast.Le -> Term.le x y
  | Ast.Gt -> Term.gt x y
  | Ast.Ge -> Term.ge x y
  | Ast.Land -> Term.and_ (Term.neq x (Term.const 0)) (Term.neq y (Term.const 0))
  | Ast.Lor -> Term.or_ (Term.neq x (Term.const 0)) (Term.neq y (Term.const 0))
  | Ast.Div | Ast.Mod -> assert false

let result_ty op =
  match op with
  | Ast.Eq | Ast.Ne | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge | Ast.Land | Ast.Lor ->
      Ast.Tbool
  | Ast.Add | Ast.Sub | Ast.Mul | Ast.Div | Ast.Mod -> Ast.Tint 32

let rec eval ctx st (e : Ast.expr) (k : st -> Sv.t -> unit) : unit =
  if check_budget ctx then ()
  else
    match e with
    | Ast.Ebool b -> k st (Sv.Sscalar (Ast.Tbool, Term.of_bool b))
    | Ast.Echar c -> k st (Sv.Sscalar (Ast.Tchar, Term.const (Char.code c)))
    | Ast.Eint n -> k st (Sv.Sscalar (Ast.Tint 32, Term.const n))
    | Ast.Estr s -> k st (Sv.concrete_string s)
    | Ast.Eenum m ->
        let ename, i = enum_index ctx.program m in
        k st (Sv.Sscalar (Ast.Tenum ename, Term.const i))
    | Ast.Evar x -> (
        match lookup st x with
        | Some v -> k st v
        | None -> (
            match Ast.enum_member_index ctx.program x with
            | Some (ename, i) -> k st (Sv.Sscalar (Ast.Tenum ename, Term.const i))
            | None -> err "unbound variable %S" x))
    | Ast.Efield (b, f) ->
        eval ctx st b (fun st v -> k st (read_path v [ Pfield f ]))
    | Ast.Eindex (b, i) ->
        eval ctx st b (fun st bv ->
            eval ctx st i (fun st iv ->
                let it = Sv.scalar_term iv in
                let size =
                  match bv with
                  | Sv.Sarray vs -> Array.length vs
                  | Sv.Sstring cells -> Array.length cells
                  | _ -> err "indexing non-array"
                in
                fork_index ctx st it size
                  (fun st idx -> k st (read_path bv [ Pindex idx ]))
                  (fun st idx ->
                    complete ctx st ~ret:Sv.Sunit
                      ~error:(Some (Printf.sprintf "index %d out of bounds" idx)))))
    | Ast.Eunop (Ast.Lnot, a) ->
        eval ctx st a (fun st v ->
            k st (Sv.Sscalar (Ast.Tbool, Term.not_ (truthy_term v))))
    | Ast.Eunop (Ast.Neg, a) ->
        eval ctx st a (fun st v ->
            k st (Sv.Sscalar (Ast.Tint 32, Term.sub (Term.const 0) (Sv.scalar_term v))))
    | Ast.Ebinop ((Ast.Div | Ast.Mod) as op, a, b) ->
        eval ctx st a (fun st av ->
            eval ctx st b (fun st bv ->
                let x = Sv.scalar_term av and y = Sv.scalar_term bv in
                branch ctx st (Term.eq y (Term.const 0))
                  (fun st ->
                    complete ctx st ~ret:Sv.Sunit ~error:(Some "division by zero"))
                  (fun st ->
                    let r =
                      match op with
                      | Ast.Div -> Term.div x y
                      | Ast.Mod -> Term.mod_ x y
                      | _ -> assert false
                    in
                    k st (Sv.Sscalar (Ast.Tint 32, r)))))
    | Ast.Ebinop (op, a, b) ->
        eval ctx st a (fun st av ->
            eval ctx st b (fun st bv ->
                let x = Sv.scalar_term av and y = Sv.scalar_term bv in
                k st (Sv.Sscalar (result_ty op, scalar_binop op x y))))
    | Ast.Econd (c, a, b) ->
        eval ctx st c (fun st cv ->
            branch ctx st (truthy_term cv)
              (fun st -> eval ctx st a k)
              (fun st -> eval ctx st b k))
    | Ast.Ecall (name, args) -> eval_args ctx st args (fun st argvs ->
        eval_call ctx st name argvs k)

and eval_args ctx st args k =
  let rec go st acc = function
    | [] -> k st (List.rev acc)
    | a :: rest -> eval ctx st a (fun st v -> go st (v :: acc) rest)
  in
  go st [] args

and eval_call ctx st name args k =
  match (name, args) with
  | "strlen", [ s ] ->
      fork_strlen ctx st (as_cells s) (fun st len ->
          k st (Sv.Sscalar (Ast.Tint 32, Term.const len)))
  | "strcmp", [ a; b ] ->
      let ac = as_cells a and bc = as_cells b in
      fork_strcmp ctx st ac bc (max (Array.length ac) (Array.length bc))
        (fun st sign -> k st (Sv.Sscalar (Ast.Tint 32, Term.const sign)))
  | "strncmp", [ a; b; n ] -> (
      match Sv.scalar_term n with
      | Term.Const limit ->
          fork_strcmp ctx st (as_cells a) (as_cells b) limit (fun st sign ->
              k st (Sv.Sscalar (Ast.Tint 32, Term.const sign)))
      | _ -> err "strncmp bound must be concrete")
  | "strcpy", _ -> err "strcpy used in expression position"
  | _ when List.mem_assoc name ctx.natives ->
      k st ((List.assoc name ctx.natives) args)
  | _ -> (
      match Ast.find_func ctx.program name with
      | None -> err "call to undefined function %S" name
      | Some f ->
          if List.length f.params <> List.length args then err "%s: arity mismatch" name;
          let callee_scope =
            List.fold_left2
              (fun acc (_, pname) v -> (pname, v) :: acc)
              [] f.params args
          in
          let saved_scopes = st.scopes in
          let st = { st with scopes = [ callee_scope ] } in
          exec_block ctx st f.body
            ~knorm:(fun st ->
              if f.ret = Ast.Tvoid then k { st with scopes = saved_scopes } Sv.Sunit
              else err "function %s fell off the end without returning" name)
            ~kret:(fun st v -> k { st with scopes = saved_scopes } v)
            ~kbrk:(fun _ -> err "break outside of a loop")
            ~kcont:(fun _ -> err "continue outside of a loop"))

(* ----- statements (CPS) ----- *)

and exec_stmt ctx st (s : Ast.stmt) ~knorm ~kret ~kbrk ~kcont : unit =
  if check_budget ctx then ()
  else if st.steps >= ctx.config.max_steps then
    complete ctx st ~ret:Sv.Sunit ~error:(Some step_budget_error)
  else begin
    let st = { st with steps = st.steps + 1 } in
    match s with
    | Ast.Sdecl (ty, name, init) -> (
        match init with
        | Some e ->
            eval ctx st e (fun st v -> knorm (declare st name (coerce ty v)))
        | None ->
            let v =
              Sv.of_value
                (Value.default ~string_bound:ctx.config.string_bound ctx.program ty)
            in
            knorm (declare st name v))
    | Ast.Sassign (lv, e) ->
        eval ctx st e (fun st v ->
            resolve_lvalue ctx st lv (fun st root path ->
                assign ctx st root path v knorm))
    | Ast.Sif (c, t, e) ->
        eval ctx st c (fun st cv ->
            branch ctx st (truthy_term cv)
              (fun st -> exec_block ctx st t ~knorm ~kret ~kbrk ~kcont)
              (fun st -> exec_block ctx st e ~knorm ~kret ~kbrk ~kcont))
    | Ast.Swhile (c, body) ->
        let rec iterate st =
          if check_budget ctx then ()
          else if st.steps >= ctx.config.max_steps then
            complete ctx st ~ret:Sv.Sunit ~error:(Some step_budget_error)
          else
            let st = { st with steps = st.steps + 1 } in
            eval ctx st c (fun st cv ->
                branch ctx st (truthy_term cv)
                  (fun st ->
                    exec_block ctx st body ~knorm:iterate ~kret ~kbrk:knorm
                      ~kcont:iterate)
                  knorm)
        in
        iterate st
    | Ast.Sfor (init, c, step, body) ->
        let st = push_scope st in
        let after st = knorm (pop_scope st) in
        let rec iterate st =
          if check_budget ctx then ()
          else if st.steps >= ctx.config.max_steps then
            complete ctx st ~ret:Sv.Sunit ~error:(Some step_budget_error)
          else
            let st = { st with steps = st.steps + 1 } in
            eval ctx st c (fun st cv ->
                branch ctx st (truthy_term cv)
                  (fun st ->
                    exec_block ctx st body ~knorm:do_step
                      ~kret:(fun st v -> kret st v)
                      ~kbrk:after ~kcont:do_step)
                  after)
        and do_step st =
          match step with
          | None -> iterate st
          | Some s ->
              exec_stmt ctx st s ~knorm:iterate ~kret ~kbrk:after ~kcont:iterate
        in
        (match init with
        | None -> iterate st
        | Some s -> exec_stmt ctx st s ~knorm:iterate ~kret ~kbrk:after ~kcont:iterate)
    | Ast.Sreturn None -> kret st Sv.Sunit
    | Ast.Sreturn (Some e) -> eval ctx st e (fun st v -> kret st v)
    | Ast.Sexpr (Ast.Ecall ("strcpy", [ dst; src ])) ->
        eval ctx st src (fun st srcv ->
            let src_cells = as_cells srcv in
            resolve_lvalue ctx st (expr_lvalue dst) (fun st root path ->
                let cur = read_root st root path in
                let dst_cells = as_cells cur in
                let nd = Array.length dst_cells in
                let copied =
                  Array.init nd (fun i ->
                      if i = nd - 1 then Term.const 0
                      else if i < Array.length src_cells then src_cells.(i)
                      else Term.const 0)
                in
                assign ctx st root path (Sv.Sstring copied) knorm))
    | Ast.Sexpr e -> eval ctx st e (fun st _ -> knorm st)
    | Ast.Sbreak -> kbrk st
    | Ast.Scontinue -> kcont st
  end

and expr_lvalue = function
  | Ast.Evar x -> Ast.Lvar x
  | Ast.Efield (b, f) -> Ast.Lfield (expr_lvalue b, f)
  | Ast.Eindex (b, i) -> Ast.Lindex (expr_lvalue b, i)
  | _ -> err "expression is not an lvalue"

and coerce ty v =
  match (ty, v) with
  | Ast.Tbool, Sv.Sscalar (t, term) when t <> Ast.Tbool ->
      Sv.Sscalar (Ast.Tbool, Term.neq term (Term.const 0))
  | (Ast.Tchar | Ast.Tint _ | Ast.Tenum _), Sv.Sscalar (_, term) ->
      Sv.Sscalar (ty, term)
  | _ -> v

and resolve_lvalue ctx st lv (k : st -> string -> step list -> unit) =
  (* Materialise the access path, concretizing symbolic indices. *)
  let rec go lv k =
    match lv with
    | Ast.Lvar x -> k st x []
    | Ast.Lfield (b, f) -> go b (fun st root path -> k st root (path @ [ Pfield f ]))
    | Ast.Lindex (b, i) ->
        go b (fun st root path ->
            eval ctx st i (fun st iv ->
                let it = Sv.scalar_term iv in
                let container = read_root st root path in
                let size =
                  match container with
                  | Sv.Sarray vs -> Array.length vs
                  | Sv.Sstring cells -> Array.length cells
                  | _ -> err "index assignment on non-array"
                in
                fork_index ctx st it size
                  (fun st idx -> k st root (path @ [ Pindex idx ]))
                  (fun st idx ->
                    complete ctx st ~ret:Sv.Sunit
                      ~error:(Some (Printf.sprintf "index %d out of bounds" idx)))))
  in
  go lv k

and read_root st root path =
  match lookup st root with
  | Some v -> read_path v path
  | None -> err "unbound variable %S" root

and assign ctx st root path v knorm =
  ignore ctx;
  match lookup st root with
  | None -> err "assignment to unbound variable %S" root
  | Some cur -> knorm (set_var st root (write_path cur path v))

and exec_block ctx st body ~knorm ~kret ~kbrk ~kcont =
  let st = push_scope st in
  let rec go st = function
    | [] -> knorm (pop_scope st)
    | s :: rest ->
        exec_stmt ctx st s
          ~knorm:(fun st -> go st rest)
          ~kret:(fun st v -> kret (pop_scope st) v)
          ~kbrk:(fun st -> kbrk (pop_scope st))
          ~kcont:(fun st -> kcont (pop_scope st))
  in
  go st body

let run ?(config = default_config) ?(natives = []) program ~entry ~args ~assumes =
  let ctx =
    {
      program;
      config;
      natives;
      refuted = refutations ();
      checks = 0;
      results = [];
      completed = 0;
      pruned = 0;
      unknown = 0;
      solver_calls = 0;
      solver_decisions = 0;
      model_reuses = 0;
      stop = false;
      timed_out = false;
    }
  in
  (match Ast.find_func program entry with
  | None -> invalid_arg (Printf.sprintf "Exec.run: no function %S" entry)
  | Some f -> (
      if List.length f.params <> List.length args then
        invalid_arg (Printf.sprintf "Exec.run: %s arity mismatch" entry);
      let init_scope =
        List.fold_left2 (fun acc (_, pname) v -> (pname, v) :: acc) [] f.params args
      in
      let assumes = List.map conjunct assumes in
      let start model =
        let ids = Ids.of_list (List.map (fun k -> k.id) assumes) in
        let st = { pc = assumes; ids; model; scopes = [ init_scope ]; steps = 0 } in
        protect ctx st (fun () ->
            exec_block ctx st f.body
              ~knorm:(fun st ->
                if f.ret = Ast.Tvoid then complete ctx st ~ret:Sv.Sunit ~error:None
                else
                  complete ctx st ~ret:Sv.Sunit
                    ~error:(Some "fell off the end without returning"))
              ~kret:(fun st v -> complete ctx st ~ret:v ~error:None)
              ~kbrk:(fun _ -> ())
              ~kcont:(fun _ -> ()))
      in
      match assumes with
      | [] -> start None
      | head :: parent -> (
          match is_sat ctx ~known:None head parent with
          | Some _ as model -> start model
          | None -> ())));
  ( List.rev ctx.results,
    {
      paths_completed = ctx.completed;
      paths_pruned = ctx.pruned;
      paths_unknown = ctx.unknown;
      solver_calls = ctx.solver_calls;
      solver_decisions = ctx.solver_decisions;
      model_reuses = ctx.model_reuses;
      timed_out = ctx.timed_out;
      ticks_used = ctx.checks;
    } )
