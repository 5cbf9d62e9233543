exception Type_error of string

let err fmt = Printf.ksprintf (fun s -> raise (Type_error s)) fmt

(* Assignment/argument compatibility: exact for aggregates, loose for
   scalars (C-style integer promotions). *)
let compatible expected actual =
  Ast.ty_equal expected actual
  || (Ast.is_scalar expected && Ast.is_scalar actual)

type env = {
  program : Ast.program;
  mutable scopes : (string * Ast.ty) list list;
}

let lookup_var env name =
  let rec go = function
    | [] -> None
    | scope :: rest -> (
        match List.assoc_opt name scope with Some t -> Some t | None -> go rest)
  in
  go env.scopes

let declare env name ty =
  match env.scopes with
  | scope :: rest ->
      if List.mem_assoc name scope then err "variable %S redeclared" name;
      env.scopes <- ((name, ty) :: scope) :: rest
  | [] -> assert false

let push_scope env = env.scopes <- [] :: env.scopes

let pop_scope env =
  match env.scopes with _ :: rest -> env.scopes <- rest | [] -> assert false

let string_like = function
  | Ast.Tstring -> true
  | Ast.Tarray (Ast.Tchar, _) -> true
  | _ -> false

let builtin_result name args =
  match (name, args) with
  | "strlen", [ s ] when string_like s -> Ast.Tint 32
  | "strcmp", [ a; b ] when string_like a && string_like b -> Ast.Tint 32
  | "strncmp", [ a; b; n ] when string_like a && string_like b && Ast.is_scalar n ->
      Ast.Tint 32
  | "strcpy", [ a; b ] when string_like a && string_like b -> Ast.Tvoid
  | _, _ -> err "bad arguments to builtin %s" name

let rec ty_of env e =
  match e with
  | Ast.Ebool _ -> Ast.Tbool
  | Ast.Echar _ -> Ast.Tchar
  | Ast.Eint _ -> Ast.Tint 32
  | Ast.Estr _ -> Ast.Tstring
  | Ast.Eenum m -> (
      match Ast.enum_member_index env.program m with
      | Some (ename, _) -> Ast.Tenum ename
      | None -> err "unknown enum member %S" m)
  | Ast.Evar x -> (
      match lookup_var env x with
      | Some t -> t
      | None -> (
          (* bare identifiers may be enum members (the parser cannot
             tell without the merged program context) *)
          match Ast.enum_member_index env.program x with
          | Some (ename, _) -> Ast.Tenum ename
          | None -> err "unbound variable %S" x))
  | Ast.Efield (b, f) -> (
      match ty_of env b with
      | Ast.Tstruct sname -> (
          match Ast.find_struct env.program sname with
          | None -> err "unknown struct %S" sname
          | Some s -> (
              match List.find_opt (fun (_, n) -> n = f) (List.map (fun (t, n) -> (t, n)) s.fields) with
              | Some (t, _) -> t
              | None -> err "struct %s has no field %S" sname f))
      | t -> err "field access on non-struct value of type %s" (Ast.ty_to_string t))
  | Ast.Eindex (b, i) -> (
      let it = ty_of env i in
      if not (Ast.is_scalar it) then err "array index must be scalar";
      match ty_of env b with
      | Ast.Tstring -> Ast.Tchar
      | Ast.Tarray (t, _) -> t
      | t -> err "indexing non-array value of type %s" (Ast.ty_to_string t))
  | Ast.Eunop (Ast.Lnot, a) ->
      let t = ty_of env a in
      if Ast.is_scalar t then Ast.Tbool else err "'!' applied to non-scalar"
  | Ast.Eunop (Ast.Neg, a) ->
      let t = ty_of env a in
      if Ast.is_scalar t then Ast.Tint 32 else err "unary '-' applied to non-scalar"
  | Ast.Ebinop (op, a, b) -> (
      let ta = ty_of env a and tb = ty_of env b in
      match op with
      | Ast.Add | Ast.Sub | Ast.Mul | Ast.Div | Ast.Mod ->
          if Ast.is_scalar ta && Ast.is_scalar tb then Ast.Tint 32
          else err "arithmetic on non-scalar operands"
      | Ast.Eq | Ast.Ne | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge ->
          if Ast.is_scalar ta && Ast.is_scalar tb then Ast.Tbool
          else if string_like ta || string_like tb then
            err "strings must be compared with strcmp, not operators"
          else err "comparison on non-scalar operands"
      | Ast.Land | Ast.Lor ->
          if Ast.is_scalar ta && Ast.is_scalar tb then Ast.Tbool
          else err "logical operator on non-scalar operands")
  | Ast.Econd (c, a, b) ->
      let tc = ty_of env c in
      if not (Ast.is_scalar tc) then err "ternary condition must be scalar";
      let ta = ty_of env a and tb = ty_of env b in
      if compatible ta tb then ta else err "ternary branches have incompatible types"
  | Ast.Ecall (name, args) ->
      if List.mem name Ast.banned then
        err "call to %s, which the system prompt forbids" name
      else begin
        let arg_tys = List.map (ty_of env) args in
        if Ast.is_builtin name then builtin_result name arg_tys
        else begin
          let sig_ =
            match Ast.find_func env.program name with
            | Some f -> Some (f.ret, f.params)
            | None -> (
                match Ast.find_proto env.program name with
                | Some p -> Some (p.pret, p.pparams)
                | None -> None)
          in
          match sig_ with
          | None -> err "call to undefined function %S" name
          | Some (ret, params) ->
              if List.length params <> List.length args then
                err "%s expects %d arguments, got %d" name (List.length params)
                  (List.length args);
              List.iter2
                (fun (pt, pn) at ->
                  if not (compatible pt at) then
                    err "argument %S of %s: expected %s, got %s" pn name
                      (Ast.ty_to_string pt) (Ast.ty_to_string at))
                params arg_tys;
              ret
        end
      end

let rec lvalue_ty env = function
  | Ast.Lvar x -> (
      match lookup_var env x with
      | Some t -> t
      | None -> err "assignment to unbound variable %S" x)
  | Ast.Lfield (b, f) -> (
      match lvalue_ty env b with
      | Ast.Tstruct sname -> (
          match Ast.find_struct env.program sname with
          | None -> err "unknown struct %S" sname
          | Some s -> (
              match List.find_opt (fun (_, n) -> n = f) s.fields with
              | Some (t, _) -> t
              | None -> err "struct %s has no field %S" sname f))
      | t -> err "field assignment on non-struct of type %s" (Ast.ty_to_string t))
  | Ast.Lindex (b, i) -> (
      let it = ty_of env i in
      if not (Ast.is_scalar it) then err "array index must be scalar";
      match lvalue_ty env b with
      | Ast.Tstring -> Ast.Tchar
      | Ast.Tarray (t, _) -> t
      | t -> err "index assignment on non-array of type %s" (Ast.ty_to_string t))

let check_ty_known env ty =
  let rec go = function
    | Ast.Tenum n ->
        if Ast.find_enum env.program n = None then err "unknown enum type %S" n
    | Ast.Tstruct n ->
        if Ast.find_struct env.program n = None then err "unknown struct type %S" n
    | Ast.Tarray (t, n) ->
        if n <= 0 then err "array size must be positive";
        go t
    | Ast.Tvoid | Ast.Tbool | Ast.Tchar | Ast.Tint _ | Ast.Tstring -> ()
  in
  go ty

let rec check_stmt env ~ret ~in_loop s =
  match s with
  | Ast.Sdecl (ty, name, init) ->
      check_ty_known env ty;
      if ty = Ast.Tvoid then err "variable %S declared void" name;
      (match init with
      | None -> ()
      | Some e ->
          let t = ty_of env e in
          if not (compatible ty t) then
            err "initialiser of %S: expected %s, got %s" name (Ast.ty_to_string ty)
              (Ast.ty_to_string t));
      declare env name ty
  | Ast.Sassign (lv, e) ->
      let lt = lvalue_ty env lv in
      let rt = ty_of env e in
      if string_like lt && string_like rt then
        err "strings must be copied with strcpy, not assignment"
      else if not (compatible lt rt) then
        err "assignment: expected %s, got %s" (Ast.ty_to_string lt) (Ast.ty_to_string rt)
  | Ast.Sif (c, t, e) ->
      let ct = ty_of env c in
      if not (Ast.is_scalar ct) then err "if condition must be scalar";
      check_block env ~ret ~in_loop t;
      check_block env ~ret ~in_loop e
  | Ast.Swhile (c, body) ->
      let ct = ty_of env c in
      if not (Ast.is_scalar ct) then err "while condition must be scalar";
      check_block env ~ret ~in_loop:true body
  | Ast.Sfor (init, c, step, body) ->
      push_scope env;
      (match init with None -> () | Some s -> check_stmt env ~ret ~in_loop s);
      let ct = ty_of env c in
      if not (Ast.is_scalar ct) then err "for condition must be scalar";
      (match step with None -> () | Some s -> check_stmt env ~ret ~in_loop:true s);
      check_block env ~ret ~in_loop:true body;
      pop_scope env
  | Ast.Sreturn None ->
      if ret <> Ast.Tvoid then err "missing return value in non-void function"
  | Ast.Sreturn (Some e) ->
      let t = ty_of env e in
      if ret = Ast.Tvoid then err "returning a value from a void function";
      if not (compatible ret t) then
        err "return type mismatch: expected %s, got %s" (Ast.ty_to_string ret)
          (Ast.ty_to_string t)
  | Ast.Sexpr e -> ignore (ty_of env e)
  | Ast.Sbreak -> if not in_loop then err "break outside of a loop"
  | Ast.Scontinue -> if not in_loop then err "continue outside of a loop"

and check_block env ~ret ~in_loop body =
  push_scope env;
  List.iter (check_stmt env ~ret ~in_loop) body;
  pop_scope env

let check_func program (f : Ast.func) =
  let env = { program; scopes = [ [] ] } in
  List.iter
    (fun (t, name) ->
      check_ty_known env t;
      if t = Ast.Tvoid then err "parameter %S declared void" name;
      declare env name t)
    f.params;
  check_ty_known env f.ret;
  check_block env ~ret:f.ret ~in_loop:false f.body

let check program =
  try
    List.iter
      (fun (f : Ast.func) ->
        try check_func program f
        with Type_error m -> err "in function %s: %s" f.fname m)
      program.Ast.funcs;
    Ok ()
  with Type_error m -> Error m

let check_exn program =
  match check program with Ok () -> () | Error m -> failwith m
