module Json = Eywa_core.Serialize.Json

(* ----- JSONL ----- *)

let cls_str = function Trace.Det -> "det" | Trace.Env -> "env"

let cls_of_string = function
  | "det" -> Ok Trace.Det
  | "env" -> Ok Trace.Env
  | s -> Error (Printf.sprintf "unknown cls %S" s)

let parent_json = function None -> Json.Null | Some p -> Json.Str p

let item_json (item : Trace.item) =
  match item with
  | Trace.Span { id; parent; name; start_at; end_at; cls; det; env } ->
      Json.Obj
        [
          ("type", Json.Str "span");
          ("id", Json.Str id);
          ("parent", parent_json parent);
          ("name", Json.Str name);
          ("start", Json.Int start_at);
          ("end", Json.Int end_at);
          ("cls", Json.Str (cls_str cls));
          ("det", Json.Obj det);
          ("env", Json.Obj env);
        ]
  | Trace.Event { id; parent; name; at; cls; det; env } ->
      Json.Obj
        [
          ("type", Json.Str "event");
          ("id", Json.Str id);
          ("parent", parent_json parent);
          ("name", Json.Str name);
          ("at", Json.Int at);
          ("cls", Json.Str (cls_str cls));
          ("det", Json.Obj det);
          ("env", Json.Obj env);
        ]

let to_jsonl (t : Trace.t) =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (Json.to_string
       (Json.Obj
          [
            ("type", Json.Str "meta");
            ("format", Json.Str "eywa-trace");
            ("version", Json.Int 1);
            ("label", Json.Str t.label);
          ]));
  Buffer.add_char buf '\n';
  List.iter
    (fun item ->
      Buffer.add_string buf (Json.to_string (item_json item));
      Buffer.add_char buf '\n')
    t.items;
  Buffer.contents buf

let ( let* ) = Result.bind

let field obj key =
  match Json.member key obj with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing field %S" key)

let str_field obj key =
  let* v = field obj key in
  match v with
  | Json.Str s -> Ok s
  | _ -> Error (Printf.sprintf "field %S is not a string" key)

let int_field obj key =
  let* v = field obj key in
  match v with
  | Json.Int n -> Ok n
  | _ -> Error (Printf.sprintf "field %S is not an integer" key)

let parent_field obj =
  let* v = field obj "parent" in
  match v with
  | Json.Null -> Ok None
  | Json.Str s -> Ok (Some s)
  | _ -> Error "field \"parent\" is not a string or null"

let attrs_field obj key =
  let* v = field obj key in
  match v with
  | Json.Obj fields -> Ok fields
  | _ -> Error (Printf.sprintf "field %S is not an object" key)

let item_of_json obj =
  let* ty = str_field obj "type" in
  let* id = str_field obj "id" in
  let* parent = parent_field obj in
  let* name = str_field obj "name" in
  let* cls_s = str_field obj "cls" in
  let* cls = cls_of_string cls_s in
  let* det = attrs_field obj "det" in
  let* env = attrs_field obj "env" in
  match ty with
  | "span" ->
      let* start_at = int_field obj "start" in
      let* end_at = int_field obj "end" in
      Ok (Trace.Span { id; parent; name; start_at; end_at; cls; det; env })
  | "event" ->
      let* at = int_field obj "at" in
      Ok (Trace.Event { id; parent; name; at; cls; det; env })
  | _ -> Error (Printf.sprintf "unknown item type %S" ty)

let of_jsonl s =
  let lines =
    String.split_on_char '\n' s |> List.filter (fun l -> String.trim l <> "")
  in
  let numbered = List.mapi (fun i l -> (i + 1, l)) lines in
  match numbered with
  | [] -> Error "empty trace"
  | (_, meta_line) :: rest ->
      let* meta = Json.of_string meta_line in
      let* ty = str_field meta "type" in
      let* format = str_field meta "format" in
      if ty <> "meta" || format <> "eywa-trace" then
        Error "first line is not an eywa-trace meta line"
      else
        let* label = str_field meta "label" in
        let* rev_items =
          List.fold_left
            (fun acc (lineno, line) ->
              let* items = acc in
              match
                let* v = Json.of_string line in
                item_of_json v
              with
              | Ok item -> Ok (item :: items)
              | Error m -> Error (Printf.sprintf "line %d: %s" lineno m))
            (Ok []) rest
        in
        Ok { Trace.label; items = List.rev rev_items }

(* ----- Chrome trace_event ----- *)

let chrome_trace (t : Trace.t) =
  let args det env =
    ("args", Json.Obj [ ("det", Json.Obj det); ("env", Json.Obj env) ])
  in
  let common = [ ("cat", Json.Str "eywa"); ("pid", Json.Int 1); ("tid", Json.Int 1) ] in
  let events =
    List.map
      (function
        | Trace.Span { id; name; start_at; end_at; det; env; _ } ->
            Json.Obj
              ([
                 ("name", Json.Str name);
                 ("ph", Json.Str "X");
                 ("ts", Json.Int (start_at * 1000));
                 ("dur", Json.Int (max 1 (end_at - start_at) * 1000));
                 ("id", Json.Str id);
               ]
              @ common
              @ [ args det env ])
        | Trace.Event { id; name; at; det; env; _ } ->
            Json.Obj
              ([
                 ("name", Json.Str name);
                 ("ph", Json.Str "i");
                 ("ts", Json.Int (at * 1000));
                 ("s", Json.Str "t");
                 ("id", Json.Str id);
               ]
              @ common
              @ [ args det env ]))
      t.items
  in
  let process_name =
    Json.Obj
      [
        ("name", Json.Str "process_name");
        ("ph", Json.Str "M");
        ("pid", Json.Int 1);
        ("args", Json.Obj [ ("name", Json.Str ("eywa " ^ t.label)) ]);
      ]
  in
  Json.to_string
    (Json.Obj
       [
         ("traceEvents", Json.List (process_name :: events));
         ("displayTimeUnit", Json.Str "ms");
       ])

(* ----- shared summary-totals schema ----- *)

module Instrument = Eywa_core.Instrument

let summary_fields s =
  List.map
    (fun (Instrument.Stat.Row st) ->
      let v = Instrument.Collector.get s st in
      ( st.key,
        match st.kind with Int -> Json.Int v | Float -> Json.Float v ))
    Instrument.Stat.rows

let summary_totals s = Json.Obj (summary_fields s)
