type func = { name : string; desc : string; args : Etype.Arg.t list }

type regex = { rname : string; pattern : string; target : Etype.Arg.t }

type custom = { cname : string; source : string }

type t = Func of func | Regex of regex | Custom of custom

let func_module name desc args =
  if List.length args < 2 then
    invalid_arg "Emodule.func_module: need at least one input and the result";
  Func { name; desc; args }

(* atomic: models may be defined from any domain *)
let regex_counter = Atomic.make 0

let regex_module pattern (target : Etype.Arg.t) =
  (* validate the pattern now so mistakes surface at model-definition
     time, as the Python library does *)
  ignore (Eywa_symex.Regex.parse pattern);
  (match Etype.strip_alias target.ty with
  | Etype.String _ -> ()
  | _ -> invalid_arg "Emodule.regex_module: target must be a string argument");
  let rname = Printf.sprintf "__eywa_regex_%d" (Atomic.fetch_and_add regex_counter 1) in
  Regex { rname; pattern; target }

let name = function
  | Func f -> f.name
  | Regex r -> r.rname
  | Custom c -> c.cname

let inputs (f : func) =
  match List.rev f.args with
  | _result :: rev_inputs -> List.rev rev_inputs
  | [] -> assert false

let result (f : func) = List.nth f.args (List.length f.args - 1)

let equal a b = name a = name b
