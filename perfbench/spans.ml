(* In-memory span recorder for the traced run. Spans are recorded from
   outside the library, around each public stage call, and written out
   as JSONL only after the run ends. *)

module Json = Eywa_core.Serialize.Json

type span = {
  id : int;
  parent : int;  (** -1 for the root *)
  name : string;
  attrs : (string * string) list;  (** workload / model / draw *)
  start : float;
  mutable stop : float;
}

let recorded : span list ref = ref []
let stack : int list ref = ref []
let next_id = ref 0

let reset () =
  recorded := [];
  stack := [];
  next_id := 0

let with_span name attrs f =
  let id = !next_id in
  incr next_id;
  let parent = match !stack with p :: _ -> p | [] -> -1 in
  let s = { id; parent; name; attrs; start = Unix.gettimeofday (); stop = nan } in
  recorded := s :: !recorded;
  stack := id :: !stack;
  Fun.protect
    ~finally:(fun () ->
      s.stop <- Unix.gettimeofday ();
      stack := List.tl !stack)
    f

let all () = List.rev !recorded
let duration s = s.stop -. s.start

(* A span's self time: its duration minus what its children cover. *)
let self_times spans =
  let child = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          (duration s +. Option.value ~default:0. (Hashtbl.find_opt child s.parent)))
    spans;
  List.map
    (fun s -> (s, duration s -. Option.value ~default:0. (Hashtbl.find_opt child s.id)))
    spans

(* (name, total self seconds, span count), in first-seen order. *)
let by_name spans =
  let tbl = Hashtbl.create 16 and order = ref [] in
  List.iter
    (fun (s, self) ->
      match Hashtbl.find_opt tbl s.name with
      | Some (t, n) -> Hashtbl.replace tbl s.name (t +. self, n + 1)
      | None ->
          order := s.name :: !order;
          Hashtbl.replace tbl s.name (self, 1))
    (self_times spans);
  List.rev_map
    (fun name ->
      let t, n = Hashtbl.find tbl name in
      (name, t, n))
    !order

let write_jsonl path spans =
  let origin = match spans with s :: _ -> s.start | [] -> 0. in
  let oc = open_out path in
  List.iter
    (fun s ->
      output_string oc
        (Json.to_string
           (Json.Obj
              ([
                 ("id", Json.Int s.id);
                 ("parent", Json.Int s.parent);
                 ("name", Json.Str s.name);
                 ("start_s", Json.Float (s.start -. origin));
                 ("end_s", Json.Float (s.stop -. origin));
               ]
              @ List.map (fun (k, v) -> (k, Json.Str v)) s.attrs)));
      output_char oc '\n')
    spans;
  close_out oc
