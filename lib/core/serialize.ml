module Value = Eywa_minic.Value

(* ----- values ----- *)

let escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun ch ->
      match ch with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 32 || Char.code c > 126 ->
          Buffer.add_string buf (Printf.sprintf "\\x%02x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let rec value_to_string = function
  | Value.Vunit -> "U"
  | Value.Vbool true -> "T"
  | Value.Vbool false -> "F"
  | Value.Vchar c -> Printf.sprintf "C%d" (Char.code c)
  | Value.Vint n -> Printf.sprintf "I%d" n
  | Value.Venum (e, i) -> Printf.sprintf "E(%s,%d)" e i
  | Value.Vstring raw -> Printf.sprintf "S\"%s\"" (escape raw)
  | Value.Vstruct (name, fields) ->
      Printf.sprintf "{%s %s}" name
        (String.concat " ; "
           (List.map (fun (f, v) -> f ^ "=" ^ value_to_string v) fields))
  | Value.Varray vs ->
      Printf.sprintf "[%s]"
        (String.concat " ; " (List.map value_to_string (Array.to_list vs)))

type cursor = { src : string; mutable pos : int }

exception Bad of string

let bad fmt = Printf.ksprintf (fun s -> raise (Bad s)) fmt

let peek c = if c.pos < String.length c.src then Some c.src.[c.pos] else None

let next c =
  match peek c with
  | Some ch ->
      c.pos <- c.pos + 1;
      ch
  | None -> bad "unexpected end of input at %d" c.pos

let skip_ws c =
  while peek c = Some ' ' do
    c.pos <- c.pos + 1
  done

let expect c ch =
  skip_ws c;
  let got = next c in
  if got <> ch then bad "expected %C, found %C at %d" ch got (c.pos - 1)

let read_int c =
  skip_ws c;
  let start = c.pos in
  if peek c = Some '-' then c.pos <- c.pos + 1;
  while (match peek c with Some ('0' .. '9') -> true | _ -> false) do
    c.pos <- c.pos + 1
  done;
  if c.pos = start then bad "expected an integer at %d" start;
  int_of_string (String.sub c.src start (c.pos - start))

let is_ident_char = function
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true
  | _ -> false

let read_ident c =
  skip_ws c;
  let start = c.pos in
  while (match peek c with Some ch when is_ident_char ch -> true | _ -> false) do
    c.pos <- c.pos + 1
  done;
  if c.pos = start then bad "expected an identifier at %d" start;
  String.sub c.src start (c.pos - start)

let read_quoted c =
  expect c '"';
  let buf = Buffer.create 8 in
  let rec go () =
    match next c with
    | '"' -> Buffer.contents buf
    | '\\' -> (
        match next c with
        | 'n' ->
            Buffer.add_char buf '\n';
            go ()
        | 'x' -> (
            let h1 = next c and h2 = next c in
            match int_of_string_opt (Printf.sprintf "0x%c%c" h1 h2) with
            | None -> bad "bad hex escape \\x%c%c at %d" h1 h2 (c.pos - 2)
            | Some v ->
                Buffer.add_char buf (Char.chr v);
                go ())
        | ch ->
            Buffer.add_char buf ch;
            go ())
    | ch ->
        Buffer.add_char buf ch;
        go ()
  in
  go ()

let rec read_value c : Value.t =
  skip_ws c;
  match next c with
  | 'U' -> Value.Vunit
  | 'T' -> Value.Vbool true
  | 'F' -> Value.Vbool false
  | 'C' -> Value.Vchar (Char.chr (read_int c land 0xff))
  | 'I' -> Value.Vint (read_int c)
  | 'E' ->
      expect c '(';
      let name = read_ident c in
      expect c ',';
      let i = read_int c in
      expect c ')';
      Value.Venum (name, i)
  | 'S' ->
      skip_ws c;
      Value.Vstring (read_quoted c)
  | '{' ->
      let name = read_ident c in
      let rec fields acc =
        skip_ws c;
        if peek c = Some '}' then begin
          c.pos <- c.pos + 1;
          List.rev acc
        end
        else begin
          if acc <> [] then expect c ';';
          let f = read_ident c in
          expect c '=';
          let v = read_value c in
          fields ((f, v) :: acc)
        end
      in
      Value.Vstruct (name, fields [])
  | '[' ->
      let rec elems acc =
        skip_ws c;
        if peek c = Some ']' then begin
          c.pos <- c.pos + 1;
          List.rev acc
        end
        else begin
          if acc <> [] then expect c ';';
          elems (read_value c :: acc)
        end
      in
      Value.Varray (Array.of_list (elems []))
  | ch -> bad "unexpected %C at %d" ch (c.pos - 1)

let value_of_string s =
  let c = { src = s; pos = 0 } in
  match read_value c with
  | v ->
      skip_ws c;
      if c.pos <> String.length s then Error "trailing input"
      else Ok v
  | exception Bad m -> Error m

let quote s = "\"" ^ escape s ^ "\""

let unquote s =
  let c = { src = s; pos = 0 } in
  match read_quoted c with
  | decoded ->
      skip_ws c;
      if c.pos <> String.length s then Error "trailing input after quote"
      else Ok decoded
  | exception Bad m -> Error m

(* ----- JSON ----- *)

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | Str of string
    | List of t list
    | Obj of (string * t) list

  (* The trace/metrics exporters need real JSON ([escape] above emits
     \xNN, which JSON parsers reject), and deterministic output: the
     printer is canonical — shortest float representation that
     round-trips, no whitespace, object fields in the order given. *)

  let escape_string s =
    let buf = Buffer.create (String.length s + 2) in
    String.iter
      (fun ch ->
        match ch with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | c when Char.code c < 32 || Char.code c > 126 ->
            Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.contents buf

  let float_to_string f =
    if not (Float.is_finite f) then invalid_arg "Json: non-finite float"
    else
      let rec shortest prec =
        if prec > 17 then Printf.sprintf "%.17g" f
        else
          let s = Printf.sprintf "%.*g" prec f in
          if float_of_string s = f then s else shortest (prec + 1)
      in
      let s = shortest 1 in
      if String.contains s '.' || String.contains s 'e' then s else s ^ ".0"

  let rec print buf = function
    | Null -> Buffer.add_string buf "null"
    | Bool true -> Buffer.add_string buf "true"
    | Bool false -> Buffer.add_string buf "false"
    | Int n -> Buffer.add_string buf (string_of_int n)
    | Float f -> Buffer.add_string buf (float_to_string f)
    | Str s ->
        Buffer.add_char buf '"';
        Buffer.add_string buf (escape_string s);
        Buffer.add_char buf '"'
    | List items ->
        Buffer.add_char buf '[';
        List.iteri
          (fun i v ->
            if i > 0 then Buffer.add_char buf ',';
            print buf v)
          items;
        Buffer.add_char buf ']'
    | Obj fields ->
        Buffer.add_char buf '{';
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_char buf ',';
            Buffer.add_char buf '"';
            Buffer.add_string buf (escape_string k);
            Buffer.add_string buf "\":";
            print buf v)
          fields;
        Buffer.add_char buf '}'

  let to_string v =
    let buf = Buffer.create 256 in
    print buf v;
    Buffer.contents buf

  let rec print_pretty buf indent = function
    | List (_ :: _ as items) ->
        Buffer.add_string buf "[\n";
        List.iteri
          (fun i v ->
            if i > 0 then Buffer.add_string buf ",\n";
            Buffer.add_string buf (String.make (indent + 2) ' ');
            print_pretty buf (indent + 2) v)
          items;
        Buffer.add_char buf '\n';
        Buffer.add_string buf (String.make indent ' ');
        Buffer.add_char buf ']'
    | Obj (_ :: _ as fields) ->
        Buffer.add_string buf "{\n";
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_string buf ",\n";
            Buffer.add_string buf (String.make (indent + 2) ' ');
            Buffer.add_char buf '"';
            Buffer.add_string buf (escape_string k);
            Buffer.add_string buf "\": ";
            print_pretty buf (indent + 2) v)
          fields;
        Buffer.add_char buf '\n';
        Buffer.add_string buf (String.make indent ' ');
        Buffer.add_char buf '}'
    | v -> print buf v

  let to_string_pretty v =
    let buf = Buffer.create 256 in
    print_pretty buf 0 v;
    Buffer.add_char buf '\n';
    Buffer.contents buf

  let skip_json_ws c =
    let ws = function Some (' ' | '\t' | '\n' | '\r') -> true | _ -> false in
    while ws (peek c) do
      c.pos <- c.pos + 1
    done

  let hex_val ch =
    match ch with
    | '0' .. '9' -> Char.code ch - Char.code '0'
    | 'a' .. 'f' -> Char.code ch - Char.code 'a' + 10
    | 'A' .. 'F' -> Char.code ch - Char.code 'A' + 10
    | _ -> bad "bad hex digit %C" ch

  let read_json_string c =
    let q = next c in
    if q <> '"' then bad "expected '\"' at %d" (c.pos - 1);
    let buf = Buffer.create 16 in
    let rec go () =
      match next c with
      | '"' -> Buffer.contents buf
      | '\\' -> (
          match next c with
          | '"' -> Buffer.add_char buf '"'; go ()
          | '\\' -> Buffer.add_char buf '\\'; go ()
          | '/' -> Buffer.add_char buf '/'; go ()
          | 'b' -> Buffer.add_char buf '\b'; go ()
          | 'f' -> Buffer.add_char buf '\012'; go ()
          | 'n' -> Buffer.add_char buf '\n'; go ()
          | 'r' -> Buffer.add_char buf '\r'; go ()
          | 't' -> Buffer.add_char buf '\t'; go ()
          | 'u' ->
              let d1 = hex_val (next c) in
              let d2 = hex_val (next c) in
              let d3 = hex_val (next c) in
              let d4 = hex_val (next c) in
              let v = (d1 lsl 12) lor (d2 lsl 8) lor (d3 lsl 4) lor d4 in
              if v > 0xff then
                bad "\\u%04x: only latin-1 escapes are supported" v;
              Buffer.add_char buf (Char.chr v);
              go ()
          | ch -> bad "bad escape \\%C at %d" ch (c.pos - 1))
      | ch -> Buffer.add_char buf ch; go ()
    in
    go ()

  let read_number c =
    let start = c.pos in
    let number_char = function
      | Some ('0' .. '9' | '-' | '+' | '.' | 'e' | 'E') -> true
      | _ -> false
    in
    while number_char (peek c) do
      c.pos <- c.pos + 1
    done;
    if c.pos = start then bad "expected a number at %d" start;
    let s = String.sub c.src start (c.pos - start) in
    let is_float =
      String.exists (function '.' | 'e' | 'E' -> true | _ -> false) s
    in
    if is_float then
      match float_of_string_opt s with
      | Some f -> Float f
      | None -> bad "bad number %S at %d" s start
    else
      match int_of_string_opt s with
      | Some n -> Int n
      | None -> bad "bad number %S at %d" s start

  let read_keyword c kw v =
    String.iter
      (fun expected ->
        let got = next c in
        if got <> expected then bad "bad literal at %d (expected %s)" c.pos kw)
      kw;
    v

  let rec read_json c =
    skip_json_ws c;
    match peek c with
    | None -> bad "unexpected end of input at %d" c.pos
    | Some '"' -> Str (read_json_string c)
    | Some 'n' -> read_keyword c "null" Null
    | Some 't' -> read_keyword c "true" (Bool true)
    | Some 'f' -> read_keyword c "false" (Bool false)
    | Some '[' ->
        c.pos <- c.pos + 1;
        let rec elems acc =
          skip_json_ws c;
          if peek c = Some ']' then begin
            c.pos <- c.pos + 1;
            List (List.rev acc)
          end
          else begin
            if acc <> [] then expect c ',';
            let v = read_json c in
            elems (v :: acc)
          end
        in
        elems []
    | Some '{' ->
        c.pos <- c.pos + 1;
        let rec fields acc =
          skip_json_ws c;
          if peek c = Some '}' then begin
            c.pos <- c.pos + 1;
            Obj (List.rev acc)
          end
          else begin
            if acc <> [] then expect c ',';
            skip_json_ws c;
            let k = read_json_string c in
            skip_json_ws c;
            expect c ':';
            let v = read_json c in
            fields ((k, v) :: acc)
          end
        in
        fields []
    | Some _ -> read_number c

  let of_string s =
    let c = { src = s; pos = 0 } in
    match read_json c with
    | v ->
        skip_json_ws c;
        if c.pos <> String.length s then
          Error (Printf.sprintf "trailing input at %d" c.pos)
        else Ok v
    | exception Bad m -> Error m

  let member key = function
    | Obj fields -> List.assoc_opt key fields
    | _ -> None
end

(* ----- test cases ----- *)

let test_to_line (t : Testcase.t) =
  let inputs =
    String.concat ", "
      (List.map (fun (n, v) -> n ^ "=" ^ value_to_string v) t.inputs)
  in
  let result =
    match t.result with None -> "none" | Some v -> value_to_string v
  in
  let error = match t.error with None -> "" | Some e -> escape e in
  Printf.sprintf "inputs(%s) result(%s) bad(%b) error(\"%s\")" inputs result
    t.bad_input error

let test_of_line line =
  let c = { src = line; pos = 0 } in
  match
    let kw = read_ident c in
    if kw <> "inputs" then bad "expected 'inputs'";
    expect c '(';
    let rec inputs acc =
      skip_ws c;
      if peek c = Some ')' then begin
        c.pos <- c.pos + 1;
        List.rev acc
      end
      else begin
        if acc <> [] then expect c ',';
        let n = read_ident c in
        expect c '=';
        let v = read_value c in
        inputs ((n, v) :: acc)
      end
    in
    let inputs = inputs [] in
    let kw = read_ident c in
    if kw <> "result" then bad "expected 'result'";
    expect c '(';
    skip_ws c;
    let result =
      if peek c = Some 'n' then begin
        let w = read_ident c in
        if w <> "none" then bad "expected 'none'";
        None
      end
      else Some (read_value c)
    in
    expect c ')';
    let kw = read_ident c in
    if kw <> "bad" then bad "expected 'bad'";
    expect c '(';
    let flag = read_ident c in
    let bad_input =
      match flag with
      | "true" -> true
      | "false" -> false
      | _ -> bad "expected a boolean"
    in
    expect c ')';
    let kw = read_ident c in
    if kw <> "error" then bad "expected 'error'";
    expect c '(';
    skip_ws c;
    let err = read_quoted c in
    expect c ')';
    { Testcase.inputs; result; bad_input;
      error = (if err = "" then None else Some err) }
  with
  | t -> Ok t
  | exception Bad m -> Error m

(* ----- line-oriented artifacts ----- *)

module Artifact = struct
  let to_string ~header fields tests =
    let buf = Buffer.create 1024 in
    let line s =
      Buffer.add_string buf s;
      Buffer.add_char buf '\n'
    in
    line header;
    List.iter (fun (name, value) -> line (name ^ " " ^ value)) fields;
    line ("tests " ^ string_of_int (List.length tests));
    List.iter (fun t -> line (test_to_line t)) tests;
    Buffer.contents buf

  let quote_opt = function None -> "-" | Some s -> quote s

  type reader = { mutable lines : string list }

  let ( let* ) = Result.bind

  let reader ~header s =
    match String.split_on_char '\n' s with
    | h :: lines when h = header -> Ok { lines }
    | _ -> Error (Printf.sprintf "not a %S artifact" header)

  let next r =
    match r.lines with
    | [] -> Error "truncated artifact"
    | l :: rest ->
        r.lines <- rest;
        Ok l

  let field r name =
    let* l = next r in
    let p = name ^ " " in
    if String.starts_with ~prefix:p l then
      Ok (String.sub l (String.length p) (String.length l - String.length p))
    else Error (Printf.sprintf "expected %S line, found %S" name l)

  let parsed of_string r name =
    let* v = field r name in
    match of_string v with
    | Some x -> Ok x
    | None -> Error (Printf.sprintf "bad %s value %S" name v)

  let int = parsed int_of_string_opt
  let float = parsed float_of_string_opt

  let quoted_opt r name =
    let* v = field r name in
    if v = "-" then Ok None else Result.map Option.some (unquote v)

  let tests r =
    let* n = int r "tests" in
    let rec go acc n =
      if n = 0 then Ok (List.rev acc)
      else
        let* l = next r in
        let* t = test_of_line l in
        go (t :: acc) (n - 1)
    in
    go [] n
end

let save path tests =
  let oc = open_out path in
  Printf.fprintf oc "# eywa test suite: %d tests\n" (List.length tests);
  List.iter (fun t -> output_string oc (test_to_line t ^ "\n")) tests;
  close_out oc

let load path =
  match open_in path with
  | exception Sys_error m -> Error m
  | ic ->
      let rec go acc lineno =
        match input_line ic with
        | exception End_of_file ->
            close_in ic;
            Ok (List.rev acc)
        | line ->
            let line = String.trim line in
            if line = "" || (String.length line > 0 && line.[0] = '#') then
              go acc (lineno + 1)
            else (
              match test_of_line line with
              | Ok t -> go (t :: acc) (lineno + 1)
              | Error m ->
                  close_in ic;
                  Error (Printf.sprintf "line %d: %s" lineno m))
      in
      go [] 1
