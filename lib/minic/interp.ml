type error = Out_of_fuel | Runtime of string

let error_to_string = function
  | Out_of_fuel -> "out of fuel"
  | Runtime m -> "runtime error: " ^ m

exception Return_exc of Value.t
exception Break_exc
exception Continue_exc
exception Runtime_exc of string
exception Fuel_exc

let rt fmt = Printf.ksprintf (fun s -> raise (Runtime_exc s)) fmt

(* String buffer helpers. Buffers carry their NULs explicitly. *)

let buf_get raw i =
  if i < 0 || i >= String.length raw then rt "string index %d out of bounds (size %d)" i (String.length raw)
  else raw.[i]

let buf_set raw i c =
  if i < 0 || i >= String.length raw then rt "string index %d out of bounds (size %d)" i (String.length raw)
  else begin
    let b = Bytes.of_string raw in
    Bytes.set b i c;
    Bytes.to_string b
  end

let c_strlen raw =
  match String.index_opt raw '\000' with
  | Some i -> i
  | None -> String.length raw

let c_str raw = String.sub raw 0 (c_strlen raw)

let c_strcmp a b = compare (c_str a) (c_str b)

let c_strncmp a b n =
  let cut s = if String.length s > n then String.sub s 0 n else s in
  compare (cut (c_str a)) (cut (c_str b))

let c_strcpy dest src =
  let s = c_str src in
  let size = String.length dest in
  if String.length s + 1 > size then rt "strcpy overflow (%d bytes into %d)" (String.length s + 1) size;
  let b = Bytes.make size '\000' in
  Bytes.blit_string s 0 b 0 (String.length s);
  Bytes.to_string b

let as_string = function
  | Value.Vstring raw -> raw
  | v -> rt "expected a string, got %s" (Value.to_string v)

(* The builtins, by name and arity; any other shape of call falls
   through to natives and program functions. *)
let builtin name arity : (Value.t list -> Value.t) option =
  match (name, arity) with
  | "strlen", 1 ->
      Some (function [ s ] -> Value.Vint (c_strlen (as_string s)) | _ -> assert false)
  | "strcmp", 2 ->
      Some
        (function
        | [ a; b ] -> Value.Vint (c_strcmp (as_string a) (as_string b))
        | _ -> assert false)
  | "strncmp", 3 ->
      Some
        (function
        | [ a; b; n ] -> Value.Vint (c_strncmp (as_string a) (as_string b) (Value.to_int n))
        | _ -> assert false)
  | "strcpy", 2 -> Some (fun _ -> rt "strcpy used in expression position")
  | _ -> None

let rec field_opt f = function
  | [] -> None
  | (g, v) :: rest -> if String.equal g f then Some v else field_opt f rest

(* Functional update of a value along an lvalue path. *)
let rec update_path v path (x : Value.t) : Value.t =
  match (path, v) with
  | [], _ -> x
  | `Field f :: rest, Value.Vstruct (n, fields) ->
      let updated =
        List.map
          (fun (g, w) -> if String.equal g f then (g, update_path w rest x) else (g, w))
          fields
      in
      if not (List.exists (fun (g, _) -> String.equal g f) fields) then
        rt "struct %s has no field %S" n f;
      Value.Vstruct (n, updated)
  | `Index i :: rest, Value.Varray vs ->
      if i < 0 || i >= Array.length vs then rt "array index %d out of bounds" i;
      let copy = Array.copy vs in
      copy.(i) <- update_path copy.(i) rest x;
      Value.Varray copy
  | `Index i :: [], Value.Vstring raw -> (
      match x with
      | Value.Vchar c -> Value.Vstring (buf_set raw i c)
      | v -> (
          (* scalar int assigned into a char cell *)
          match v with
          | Value.Vint n -> Value.Vstring (buf_set raw i (Char.chr (n land 0xff)))
          | Value.Vbool b -> Value.Vstring (buf_set raw i (if b then '\001' else '\000'))
          | _ -> rt "cannot store %s into a string cell" (Value.to_string v)))
  | _, v -> rt "cannot follow lvalue path into %s" (Value.to_string v)

let coerce ty v =
  match (ty, v) with
  | Ast.Tbool, _ when (match v with Value.Vbool _ -> false | _ -> true) -> (
      match v with
      | Value.Vchar _ | Value.Vint _ | Value.Venum _ -> Value.Vbool (Value.truthy v)
      | _ -> v)
  | Ast.Tchar, Value.Vint n -> Value.Vchar (Char.chr (n land 0xff))
  | Ast.Tint _, Value.Vbool b -> Value.Vint (if b then 1 else 0)
  | Ast.Tint _, Value.Vchar c -> Value.Vint (Char.code c)
  | Ast.Tint _, Value.Venum (_, i) -> Value.Vint i
  | Ast.Tenum e, Value.Vint n -> Value.Venum (e, n)
  | _ -> v

let expr_lvalue e =
  let rec go = function
    | Ast.Evar x -> Ast.Lvar x
    | Ast.Efield (b, f) -> Ast.Lfield (go b, f)
    | Ast.Eindex (b, i) -> Ast.Lindex (go b, i)
    | _ -> raise (Runtime_exc "not an lvalue")
  in
  go e

(* ----- the compiled form ----- *)

(* One execution's mutable state. [natives] is indexed by callee id
   (see [compiled.callees]); [hits] has one byte per branch edge. *)
type st = {
  mutable fuel : int;
  string_bound : int;
  natives : (Value.t list -> Value.t) option array;
  hits : Bytes.t;
}

(* Compiled code runs against [st] and the current call's frame: one
   [Value.t] slot per parameter and per live local declaration. *)
type frame = Value.t array
type code = st -> frame -> Value.t
type stmt_code = st -> frame -> unit

type fn = { func : Ast.func; mutable frame_size : int; mutable body : stmt_code }

type compiled = {
  fns : fn list;  (* in [program.funcs] order *)
  callees : string array;  (* names at non-builtin call sites, by callee id *)
  labels : string array;  (* branch edge id -> label *)
  scratch : Bytes.t;  (* [hits] of runs without a coverage map; never read *)
}

let tick st = if st.fuel <= 0 then raise Fuel_exc else st.fuel <- st.fuel - 1
let mark st id = Bytes.unsafe_set st.hits id '\001'
let nop _ _ = ()
let vtrue = Value.Vbool true
let vfalse = Value.Vbool false
let vbool b = if b then vtrue else vfalse

let invoke fn st frame =
  match fn.body st frame with
  | () ->
      if fn.func.ret = Ast.Tvoid then Value.Vunit
      else rt "function %s fell off the end without returning" fn.func.fname
  | exception Return_exc v -> v

(* ----- the compile step ----- *)

(* What a name means at one program point. Scoping is lexical, so it is
   resolved once here: a frame slot, an enum member, or nothing (an
   error when evaluated). [Late] is a [for] step that declares a
   variable: the loop condition and body see the step's slot only once
   the step has run in this entry of the loop, and the outer meaning
   before, so the slot holds [unset] until then. *)
type binding = Slot of int | Late of int * binding | Enum of Value.t | Unbound

let unset = Value.Vstring "<unset>"

type scopes = {
  mutable vars : (string * binding) list list;
  mutable next : int;  (* first free slot *)
  mutable size : int;  (* frame size so far *)
}

type cx = {
  program : Ast.program;
  cfns : fn list;
  callee_ids : (string, int) Hashtbl.t;
  mutable edges : string list;  (* labels so far, newest first *)
  mutable n_edges : int;
}

(* Branch edges are numbered densely in the order this pass meets
   them, and labelled by structural position (function name +
   statement path + construct + outcome), so the same program gets the
   same ids and labels in any run, on any domain. *)
let edge cx label =
  let id = cx.n_edges in
  cx.edges <- label :: cx.edges;
  cx.n_edges <- id + 1;
  id

let callee_id cx name =
  match Hashtbl.find_opt cx.callee_ids name with
  | Some id -> id
  | None ->
      let id = Hashtbl.length cx.callee_ids in
      Hashtbl.add cx.callee_ids name id;
      id

let resolve cx sc x =
  let rec go = function
    | [] -> (
        match Ast.enum_member_index cx.program x with
        | Some (ename, i) -> Enum (Value.Venum (ename, i))
        | None -> Unbound)
    | scope :: rest -> (
        match List.assoc_opt x scope with Some b -> b | None -> go rest)
  in
  go sc.vars

let bind sc x b =
  match sc.vars with
  | scope :: rest -> sc.vars <- ((x, b) :: scope) :: rest
  | [] -> assert false

let fresh_slot sc =
  let s = sc.next in
  sc.next <- s + 1;
  sc.size <- max sc.size sc.next;
  s

(* A block's slots are free again once it ends: its names are out of
   scope and the next sibling block can reuse them. *)
let in_scope sc f =
  let vars = sc.vars and next = sc.next in
  sc.vars <- [] :: vars;
  let r = f () in
  sc.vars <- vars;
  sc.next <- next;
  r

let rec read x = function
  | Slot s -> fun _ frame -> frame.(s)
  | Late (s, outer) ->
      let outer = read x outer in
      fun st frame ->
        let v = frame.(s) in
        if v == unset then outer st frame else v
  | Enum v -> fun _ _ -> v
  | Unbound -> fun _ _ -> rt "unbound variable %S" x

(* The slot an assignment to [x] writes. Unlike reads, assignments do
   not fall back to enum members. *)
let rec cell x = function
  | Slot s -> fun _ -> s
  | Late (s, outer) ->
      let outer = cell x outer in
      fun frame -> if frame.(s) == unset then outer frame else s
  | Enum _ | Unbound -> fun _ -> rt "unbound variable %S" x

let rec seq = function
  | [] -> nop
  | [ a ] -> a
  | a :: rest ->
      let rest = seq rest in
      fun st frame ->
        a st frame;
        rest st frame

let rec expr cx sc (e : Ast.expr) : code =
  match e with
  | Ast.Ebool b ->
      let v = vbool b in
      fun _ _ -> v
  | Ast.Echar c ->
      let v = Value.Vchar c in
      fun _ _ -> v
  | Ast.Eint n ->
      let v = Value.Vint n in
      fun _ _ -> v
  | Ast.Estr s ->
      let v = Value.of_cstring s in
      fun _ _ -> v
  | Ast.Eenum m -> (
      match Ast.enum_member_index cx.program m with
      | Some (ename, i) ->
          let v = Value.Venum (ename, i) in
          fun _ _ -> v
      | None -> fun _ _ -> rt "unknown enum member %S" m)
  | Ast.Evar x -> read x (resolve cx sc x)
  | Ast.Efield (b, f) -> (
      let b = expr cx sc b in
      fun st frame ->
        match b st frame with
        | Value.Vstruct (n, fields) -> (
            match field_opt f fields with
            | Some v -> v
            | None -> rt "struct %s has no field %S" n f)
        | v -> rt "field access on %s" (Value.to_string v))
  | Ast.Eindex (b, i) -> (
      let b = expr cx sc b and i = expr cx sc i in
      fun st frame ->
        let idx = Value.to_int (i st frame) in
        match b st frame with
        | Value.Vstring raw -> Value.Vchar (buf_get raw idx)
        | Value.Varray vs ->
            if idx < 0 || idx >= Array.length vs then rt "array index %d out of bounds" idx
            else vs.(idx)
        | v -> rt "indexing %s" (Value.to_string v))
  | Ast.Eunop (Ast.Lnot, a) ->
      let a = expr cx sc a in
      fun st frame -> vbool (not (Value.truthy (a st frame)))
  | Ast.Eunop (Ast.Neg, a) ->
      let a = expr cx sc a in
      fun st frame -> Value.Vint (- Value.to_int (a st frame))
  | Ast.Ebinop (Ast.Land, a, b) ->
      let a = expr cx sc a and b = expr cx sc b in
      fun st frame -> vbool (Value.truthy (a st frame) && Value.truthy (b st frame))
  | Ast.Ebinop (Ast.Lor, a, b) ->
      let a = expr cx sc a and b = expr cx sc b in
      fun st frame -> vbool (Value.truthy (a st frame) || Value.truthy (b st frame))
  | Ast.Ebinop (op, a, b) -> (
      let a = expr cx sc a and b = expr cx sc b in
      let ints f st frame =
        let x = Value.to_int (a st frame) and y = Value.to_int (b st frame) in
        f x y
      in
      match op with
      | Ast.Add -> ints (fun x y -> Value.Vint (x + y))
      | Ast.Sub -> ints (fun x y -> Value.Vint (x - y))
      | Ast.Mul -> ints (fun x y -> Value.Vint (x * y))
      | Ast.Div -> ints (fun x y -> if y = 0 then rt "division by zero" else Value.Vint (x / y))
      | Ast.Mod -> ints (fun x y -> if y = 0 then rt "modulo by zero" else Value.Vint (x mod y))
      | Ast.Eq -> ints (fun x y -> vbool (x = y))
      | Ast.Ne -> ints (fun x y -> vbool (x <> y))
      | Ast.Lt -> ints (fun x y -> vbool (x < y))
      | Ast.Le -> ints (fun x y -> vbool (x <= y))
      | Ast.Gt -> ints (fun x y -> vbool (x > y))
      | Ast.Ge -> ints (fun x y -> vbool (x >= y))
      | Ast.Land | Ast.Lor -> assert false)
  | Ast.Econd (c, a, b) ->
      let c = expr cx sc c and a = expr cx sc a and b = expr cx sc b in
      fun st frame -> if Value.truthy (c st frame) then a st frame else b st frame
  | Ast.Ecall (name, args) -> call cx name (List.map (expr cx sc) args)

(* Arguments are evaluated left to right, then the call ticks, then it
   dispatches: builtins (decided here), natives (per run, by callee
   id), program functions (bound here). *)
and call cx name args : code =
  let eval_args st frame = List.map (fun a -> a st frame) args in
  match builtin name (List.length args) with
  | Some b ->
      fun st frame ->
        let vs = eval_args st frame in
        tick st;
        b vs
  | None -> (
      let id = callee_id cx name in
      let target =
        List.find_opt (fun fn -> String.equal fn.func.fname name) cx.cfns
      in
      match target with
      | Some fn when List.length fn.func.params = List.length args ->
          (* the arguments land straight in the callee's parameter slots *)
          let args = Array.of_list args in
          let n = Array.length args in
          fun st frame -> (
            let callee = Array.make fn.frame_size Value.Vunit in
            for i = 0 to n - 1 do
              callee.(i) <- args.(i) st frame
            done;
            tick st;
            match st.natives.(id) with
            | Some native -> native (Array.to_list (Array.sub callee 0 n))
            | None -> invoke fn st callee)
      | _ -> (
          fun st frame ->
            let vs = eval_args st frame in
            tick st;
            match st.natives.(id) with
            | Some native -> native vs
            | None -> (
                match target with
                | None -> rt "call to undefined function %S" name
                | Some _ -> rt "%s: arity mismatch" name)))

(* Where an assignment to [lv] stores a value: the index expressions
   are evaluated innermost first, then the root is looked up, then the
   value is written by functional update. *)
let assign cx sc lv : st -> frame -> Value.t -> unit =
  let rec steps = function
    | Ast.Lvar x -> (x, [])
    | Ast.Lfield (b, f) ->
        let root, path = steps b in
        (root, path @ [ `Field f ])
    | Ast.Lindex (b, i) ->
        let root, path = steps b in
        (root, path @ [ `Index (expr cx sc i) ])
  in
  let root, path = steps lv in
  let b = resolve cx sc root in
  match (b, path) with
  | Slot s, [] -> fun _ frame v -> frame.(s) <- v
  | _ ->
      let cell = cell root b in
      fun st frame v ->
        let path =
          List.map
            (function
              | `Field f -> `Field f | `Index i -> `Index (Value.to_int (i st frame)))
            path
        in
        let s = cell frame in
        frame.(s) <- update_path frame.(s) path v

(* The value a declaration stores in its slot. Its initialiser is
   resolved before the name is bound, so [int x = x + 1] reads the
   enclosing [x]. *)
let decl_value cx sc ty init : code =
  match init with
  | Some e ->
      let e = expr cx sc e in
      fun st frame -> coerce ty (e st frame)
  | None -> (
      match ty with
      | Ast.Tvoid | Ast.Tbool | Ast.Tchar | Ast.Tint _ | Ast.Tenum _ ->
          let v = Value.default cx.program ty in
          fun _ _ -> v
      | Ast.Tstring | Ast.Tstruct _ | Ast.Tarray _ ->
          fun st _ -> Value.default ~string_bound:st.string_bound cx.program ty)

(* A declaration's store into its slot, as a statement. *)
let store slot v : stmt_code =
 fun st frame ->
  tick st;
  frame.(slot) <- v st frame

(* [while] and the loop part of [for]: one tick per test of [c]. *)
let loop c id_t id_f body step : stmt_code =
 fun st frame ->
  try
    while
      tick st;
      Value.truthy (c st frame)
    do
      mark st id_t;
      (try body st frame with Continue_exc -> ());
      step st frame
    done;
    mark st id_f
  with Break_exc -> ()

(* Every statement ticks once before it runs. *)
let rec stmt cx sc at (s : Ast.stmt) : stmt_code =
  match s with
  | Ast.Sdecl (ty, name, init) ->
      let v = decl_value cx sc ty init in
      let slot = fresh_slot sc in
      bind sc name (Slot slot);
      store slot v
  | Ast.Sassign (lv, e) ->
      let e = expr cx sc e in
      let set = assign cx sc lv in
      fun st frame ->
        tick st;
        set st frame (e st frame)
  | Ast.Sif (c, t, e) ->
      let c = expr cx sc c in
      let id_t = edge cx (at ^ "#if:t") in
      let id_f = edge cx (at ^ "#if:f") in
      let t = block cx sc (at ^ "t") t in
      let e = block cx sc (at ^ "e") e in
      fun st frame ->
        tick st;
        if Value.truthy (c st frame) then begin
          mark st id_t;
          t st frame
        end
        else begin
          mark st id_f;
          e st frame
        end
  | Ast.Swhile (c, body) ->
      let c = expr cx sc c in
      let id_t = edge cx (at ^ "#wh:t") in
      let id_f = edge cx (at ^ "#wh:f") in
      let loop = loop c id_t id_f (block cx sc (at ^ "b") body) nop in
      fun st frame ->
        tick st;
        loop st frame
  | Ast.Sfor (init, c, step, body) ->
      in_scope sc (fun () ->
          let init =
            match init with None -> nop | Some s -> stmt cx sc (at ^ "i") s
          in
          let init, step =
            match step with
            | Some (Ast.Sdecl (ty, name, e)) ->
                let slot = fresh_slot sc in
                bind sc name (Late (slot, resolve cx sc name));
                let step () = store slot (decl_value cx sc ty e) in
                ( (fun st frame ->
                    frame.(slot) <- unset;
                    init st frame),
                  step )
            | None -> (init, fun () -> nop)
            | Some s -> (init, fun () -> stmt cx sc (at ^ "s") s)
          in
          let c = expr cx sc c in
          let id_t = edge cx (at ^ "#for:t") in
          let id_f = edge cx (at ^ "#for:f") in
          let body = block cx sc (at ^ "b") body in
          (* the step's edges come after the body's *)
          let loop = loop c id_t id_f body (step ()) in
          fun st frame ->
            tick st;
            init st frame;
            loop st frame)
  | Ast.Sreturn e ->
      let e = match e with None -> fun _ _ -> Value.Vunit | Some e -> expr cx sc e in
      fun st frame ->
        tick st;
        raise_notrace (Return_exc (e st frame))
  | Ast.Sexpr (Ast.Ecall ("strcpy", [ dst; src ])) ->
      let src = expr cx sc src in
      let copy =
        match dst with
        | Ast.Evar _ | Ast.Efield _ | Ast.Eindex _ -> (
            match expr_lvalue dst with
            | lv ->
                let cur = expr cx sc dst in
                let set = assign cx sc lv in
                fun st frame v ->
                  let cur = cur st frame in
                  set st frame (Value.Vstring (c_strcpy (as_string cur) (as_string v)))
            | exception Runtime_exc m -> fun _ _ _ -> raise (Runtime_exc m))
        | _ -> fun _ _ _ -> rt "strcpy destination is not assignable"
      in
      fun st frame ->
        tick st;
        copy st frame (src st frame)
  | Ast.Sexpr e ->
      let e = expr cx sc e in
      fun st frame ->
        tick st;
        ignore (e st frame)
  | Ast.Sbreak | Ast.Scontinue ->
      let exn = if s = Ast.Sbreak then Break_exc else Continue_exc in
      fun st _ ->
        tick st;
        raise_notrace exn

and block cx sc at body =
  in_scope sc (fun () ->
      seq (List.mapi (fun i s -> stmt cx sc (at ^ "." ^ string_of_int i) s) body))

let compile (program : Ast.program) =
  let cfns =
    List.map (fun func -> { func; frame_size = 0; body = nop }) program.Ast.funcs
  in
  let cx =
    { program; cfns; callee_ids = Hashtbl.create 16; edges = []; n_edges = 0 }
  in
  List.iter
    (fun fn ->
      (* parameters take slots 0..n-1, in order; the body is a block
         nested inside their scope *)
      let sc = { vars = [ [] ]; next = 0; size = 0 } in
      List.iter (fun (_, p) -> bind sc p (Slot (fresh_slot sc))) fn.func.params;
      fn.body <- block cx sc fn.func.fname fn.func.body;
      fn.frame_size <- sc.size)
    cfns;
  let callees = Array.make (Hashtbl.length cx.callee_ids) "" in
  Hashtbl.iter (fun name id -> callees.(id) <- name) cx.callee_ids;
  let labels = Array.of_list (List.rev cx.edges) in
  { fns = cfns; callees; labels; scratch = Bytes.create (Array.length labels) }

(* One entry per domain, keyed by the program's physical identity:
   callers replay many inputs through one program before moving to the
   next, so the last program compiled is almost always the one asked
   for, and pool domains never share compiled code. *)
let memo : (Ast.program * compiled) option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let compiled program =
  let last = Domain.DLS.get memo in
  match !last with
  | Some (p, c) when p == program -> c
  | _ ->
      let c = compile program in
      last := Some (program, c);
      c

(* ----- coverage maps ----- *)

type coverage = {
  mutable owner : Ast.program option;  (* bound on first use *)
  mutable labels : string array;
  mutable hits : Bytes.t;
}

let coverage_create () = { owner = None; labels = [||]; hits = Bytes.empty }

let claim cov program (c : compiled) =
  match cov.owner with
  | Some p when p == program -> cov.hits
  | Some _ -> invalid_arg "Interp.run: coverage map belongs to another program"
  | None ->
      cov.owner <- Some program;
      cov.labels <- c.labels;
      cov.hits <- Bytes.make (Array.length c.labels) '\000';
      cov.hits

let same_owner what a b =
  match (a.owner, b.owner) with
  | Some p, Some q when p != q -> invalid_arg (what ^ ": coverage maps of different programs")
  | _ -> ()

let coverage_count cov =
  let n = ref 0 in
  Bytes.iter (fun b -> if b <> '\000' then incr n) cov.hits;
  !n

let coverage_news ~global local =
  same_owner "Interp.coverage_news" global local;
  if global.owner = None then coverage_count local
  else begin
    let n = ref 0 in
    Bytes.iteri
      (fun i b -> if b <> '\000' && Bytes.unsafe_get global.hits i = '\000' then incr n)
      local.hits;
    !n
  end

let coverage_absorb ~into local =
  same_owner "Interp.coverage_absorb" into local;
  match (into.owner, local.owner) with
  | _, None -> ()
  | None, Some _ ->
      into.owner <- local.owner;
      into.labels <- local.labels;
      into.hits <- Bytes.copy local.hits
  | Some _, Some _ ->
      Bytes.iteri (fun i b -> if b <> '\000' then Bytes.unsafe_set into.hits i b) local.hits

let covered cov =
  let acc = ref [] in
  for i = Bytes.length cov.hits - 1 downto 0 do
    if Bytes.get cov.hits i <> '\000' then acc := cov.labels.(i) :: !acc
  done;
  !acc

let static_edges program = Array.to_list (compiled program).labels

(* ----- running ----- *)

(* The entry call dispatches by name at run time, in the same order as
   a compiled call site: builtins, natives, program functions. *)
let enter c st natives name args =
  tick st;
  match builtin name (List.length args) with
  | Some b -> b args
  | None -> (
      if List.mem_assoc name natives then (List.assoc name natives) args
      else
        match List.find_opt (fun fn -> String.equal fn.func.fname name) c.fns with
        | None -> rt "call to undefined function %S" name
        | Some fn ->
            if List.length fn.func.params <> List.length args then
              rt "%s: arity mismatch" name;
            let frame = Array.make fn.frame_size Value.Vunit in
            List.iteri (fun i v -> frame.(i) <- v) args;
            invoke fn st frame)

let run ?(fuel = 100_000) ?(string_bound = 16) ?(natives = []) ?coverage program
    fname args =
  let c = compiled program in
  let hits =
    match coverage with None -> c.scratch | Some cov -> claim cov program c
  in
  let natives_by_id =
    Array.map (fun name -> List.assoc_opt name natives) c.callees
  in
  let st = { fuel; string_bound; natives = natives_by_id; hits } in
  match enter c st natives fname args with
  | v -> Ok v
  | exception Runtime_exc m -> Error (Runtime m)
  | exception Fuel_exc -> Error Out_of_fuel
