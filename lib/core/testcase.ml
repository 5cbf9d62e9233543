module Value = Eywa_minic.Value

type t = {
  inputs : (string * Value.t) list;
  result : Value.t option;
  bad_input : bool;
  error : string option;
}

let input t name = List.assoc name t.inputs

let input_string t name = Value.cstring (input t name)

(* [c] as OCaml's lexical escaping writes it inside [quote]s:
   [Char.escaped] for [quote = '\''], [String.escaped] for ['"'] (the
   two differ only in which quote they escape). *)
let add_escaped buf ~quote c =
  match c with
  | '\\' -> Buffer.add_string buf "\\\\"
  | '\n' -> Buffer.add_string buf "\\n"
  | '\t' -> Buffer.add_string buf "\\t"
  | '\r' -> Buffer.add_string buf "\\r"
  | '\b' -> Buffer.add_string buf "\\b"
  | c when c = quote ->
      Buffer.add_char buf '\\';
      Buffer.add_char buf c
  | ' ' .. '~' -> Buffer.add_char buf c
  | c ->
      let n = Char.code c in
      Buffer.add_char buf '\\';
      Buffer.add_char buf (Char.unsafe_chr (48 + (n / 100)));
      Buffer.add_char buf (Char.unsafe_chr (48 + (n / 10 mod 10)));
      Buffer.add_char buf (Char.unsafe_chr (48 + (n mod 10)))

let add_list buf sep add = function
  | [] -> ()
  | x :: xs ->
      add x;
      List.iter
        (fun x ->
          Buffer.add_char buf sep;
          add x)
        xs

(* The canonical rendering of a value: {!Value.pp}'s spelling of each
   scalar, written straight into [buf] without Format. Strings are
   canonicalised to their C contents so buffers that differ only after
   the first NUL coincide. *)
let rec add_canon buf (v : Value.t) =
  match v with
  | Vunit -> Buffer.add_string buf "()"
  | Vbool b -> Buffer.add_string buf (if b then "true" else "false")
  | Vchar c ->
      Buffer.add_char buf '\'';
      add_escaped buf ~quote:'\'' c;
      Buffer.add_char buf '\''
  | Vint n -> Buffer.add_string buf (Int.to_string n)
  | Venum (e, i) ->
      Buffer.add_string buf e;
      Buffer.add_char buf '#';
      Buffer.add_string buf (Int.to_string i)
  | Vstring raw ->
      Buffer.add_char buf '"';
      let len =
        match String.index_opt raw '\000' with
        | Some i -> i
        | None -> String.length raw
      in
      for i = 0 to len - 1 do
        add_escaped buf ~quote:'"' raw.[i]
      done;
      Buffer.add_char buf '"'
  | Vstruct (n, fs) ->
      Buffer.add_string buf n;
      Buffer.add_char buf '{';
      add_list buf ';'
        (fun (f, w) ->
          Buffer.add_string buf f;
          Buffer.add_char buf '=';
          add_canon buf w)
        fs;
      Buffer.add_char buf '}'
  | Varray vs ->
      Buffer.add_char buf '[';
      Array.iteri
        (fun i w ->
          if i > 0 then Buffer.add_char buf ';';
          add_canon buf w)
        vs;
      Buffer.add_char buf ']'

let canon v =
  let buf = Buffer.create 32 in
  add_canon buf v;
  Buffer.contents buf

let key t =
  let buf = Buffer.create 64 in
  add_list buf ','
    (fun (name, v) ->
      Buffer.add_string buf name;
      Buffer.add_char buf '=';
      add_canon buf v)
    t.inputs;
  Buffer.contents buf

let dedup tests =
  let seen = Hashtbl.create (List.length tests) in
  List.filter
    (fun t ->
      let k = key t in
      if Hashtbl.mem seen k then false
      else begin
        Hashtbl.add seen k ();
        true
      end)
    tests

let pp ppf t =
  Format.fprintf ppf "{%s -> %s%s%s}" (key t)
    (match t.result with None -> "<none>" | Some v -> canon v)
    (if t.bad_input then " (bad-input)" else "")
    (match t.error with None -> "" | Some e -> Printf.sprintf " (error: %s)" e)

let to_string t = Format.asprintf "%a" pp t
