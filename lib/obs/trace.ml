module Instrument = Eywa_core.Instrument
module Json = Eywa_core.Serialize.Json

type cls = Instrument.cls = Det | Env

type attrs = (string * Json.t) list

type item =
  | Span of {
      id : string;
      parent : string option;
      name : string;
      start_at : int;
      end_at : int;
      cls : cls;
      det : attrs;
      env : attrs;
    }
  | Event of {
      id : string;
      parent : string option;
      name : string;
      at : int;
      cls : cls;
      det : attrs;
      env : attrs;
    }

type t = { label : string; items : item list }

type builder = {
  label : string;
  mutable seq : int;  (* logical clock; root opens at 0 *)
  mutable rev_items : item list;
  open_draws : (int, int * string) Hashtbl.t;  (* index -> start_at, span id *)
  id_counts : (string, int) Hashtbl.t;  (* base id -> uses so far *)
}

let builder ~label =
  {
    label;
    seq = 0;
    rev_items = [];
    open_draws = Hashtbl.create 16;
    id_counts = Hashtbl.create 64;
  }

(* Ids are paths under the run label; a base that repeats (a second
   synthesis fed into the same context, repeated cache probes) gets a
   deterministic #n suffix. Env-classed bases (cache probes) have their
   own counters, so their multiplicity never shifts a Det id. *)
let fresh b base =
  let n = try Hashtbl.find b.id_counts base with Not_found -> 0 in
  Hashtbl.replace b.id_counts base (n + 1);
  if n = 0 then base else Printf.sprintf "%s#%d" base (n + 1)

let tick b =
  b.seq <- b.seq + 1;
  b.seq

let push b item = b.rev_items <- item :: b.rev_items

let draw_base b index = Printf.sprintf "%s/draw/%d" b.label index

(* the draw span a child event belongs to: the open one for this index,
   or (tolerating streams that skip [Draw_started]) the base id *)
let draw_parent b index =
  match Hashtbl.find_opt b.open_draws index with
  | Some (_, id) -> id
  | None -> draw_base b index

let feed b (ev : Instrument.event) =
  let at = tick b in
  match ev with
  | Draw_started { index } ->
      Hashtbl.replace b.open_draws index (at, fresh b (draw_base b index))
  | Draw_finished { index; tests; gen_seconds; symex_seconds } ->
      let start_at, id =
        try Hashtbl.find b.open_draws index
        with Not_found -> (at, fresh b (draw_base b index))
      in
      Hashtbl.remove b.open_draws index;
      push b
        (Span
           {
             id;
             parent = Some b.label;
             name = Printf.sprintf "draw %d" index;
             start_at;
             end_at = at;
             cls = Det;
             det = [ ("tests", Json.Int tests) ];
             env =
               [
                 ("gen_seconds", Json.Float gen_seconds);
                 ("symex_seconds", Json.Float symex_seconds);
               ];
           })
  | Compile_rejected { index; stage; message } ->
      push b
        (Event
           {
             id = fresh b (draw_parent b index ^ "/reject");
             parent = Some (draw_parent b index);
             name = "compile_rejected";
             at;
             cls = Det;
             det = [ ("stage", Json.Str stage); ("message", Json.Str message) ];
             env = [];
           })
  | Symex_done { index; stats = st } ->
      push b
        (Span
           {
             id = fresh b (draw_parent b index ^ "/symex");
             parent = Some (draw_parent b index);
             name = "symex";
             start_at = at;
             end_at = at;
             cls = Det;
             det =
               List.map
                 (fun (name, get) -> (name, Json.Int (get st)))
                 Eywa_symex.Exec.stats_columns;
             env = [];
           })
  | Cache_hit { stage; key } | Cache_miss { stage; key } ->
      let hit = match ev with Instrument.Cache_hit _ -> true | _ -> false in
      let name = if hit then "cache_hit" else "cache_miss" in
      push b
        (Event
           {
             id = fresh b (Printf.sprintf "%s/cache/%s" b.label name);
             parent = Some b.label;
             name;
             at;
             cls = Env;
             det = [ ("stage", Json.Str stage); ("key", Json.Str key) ];
             env = [];
           })
  | Suite_aggregated { draws; unique_tests } ->
      push b
        (Event
           {
             id = fresh b (b.label ^ "/aggregate");
             parent = Some b.label;
             name = "suite_aggregated";
             at;
             cls = Det;
             det =
               [
                 ("draws", Json.Int draws);
                 ("unique_tests", Json.Int unique_tests);
               ];
             env = [];
           })
  | Fuzz_done { index; execs; edges_seed; edges_after; new_tests } ->
      push b
        (Span
           {
             id = fresh b (Printf.sprintf "%s/fuzz/%d" b.label index);
             parent = Some b.label;
             name = Printf.sprintf "fuzz %d" index;
             start_at = at;
             end_at = at;
             cls = Det;
             det =
               [
                 ("execs", Json.Int execs);
                 ("edges_seed", Json.Int edges_seed);
                 ("edges_after", Json.Int edges_after);
                 ("new_tests", Json.Int new_tests);
               ];
             env = [];
           })
  | Fuzz_aggregated { draws; fuzz_tests; combined_tests } ->
      push b
        (Event
           {
             id = fresh b (b.label ^ "/fuzz-aggregate");
             parent = Some b.label;
             name = "fuzz_aggregated";
             at;
             cls = Det;
             det =
               [
                 ("draws", Json.Int draws);
                 ("fuzz_tests", Json.Int fuzz_tests);
                 ("combined_tests", Json.Int combined_tests);
               ];
             env = [];
           })
  | Difftest_done { label; total_tests; disagreeing_tests; tuples; execs } ->
      push b
        (Span
           {
             id = fresh b (Printf.sprintf "%s/difftest/%s" b.label label);
             parent = Some b.label;
             name = Printf.sprintf "difftest %s" label;
             start_at = at;
             end_at = at;
             cls = Det;
             det =
               [
                 ("total_tests", Json.Int total_tests);
                 ("disagreeing_tests", Json.Int disagreeing_tests);
                 ("tuples", Json.Int tuples);
                 ("execs", Json.Int execs);
               ];
             env = [];
           })
  | Pool_merged
      { label; tasks; computed; jobs; per_worker; queue_wait_ticks; refutations_reused }
    ->
      push b
        (Event
           {
             id = fresh b (Printf.sprintf "%s/pool/%s" b.label label);
             parent = Some b.label;
             name = Printf.sprintf "pool %s" label;
             at;
             cls = Det;
             det = [ ("tasks", Json.Int tasks) ];
             env =
               [
                 ("computed", Json.Int computed);
                 ("jobs", Json.Int jobs);
                 ( "per_worker",
                   Json.List (List.map (fun n -> Json.Int n) per_worker) );
                 ("queue_wait_ticks", Json.Int queue_wait_ticks);
                 ("refutations_reused", Json.Int refutations_reused);
               ];
           })

let finish b =
  let unclosed =
    Hashtbl.fold (fun index (start_at, id) acc -> (index, start_at, id) :: acc)
      b.open_draws []
    |> List.sort compare
    |> List.map (fun (index, start_at, id) ->
           Span
             {
               id;
               parent = Some b.label;
               name = Printf.sprintf "draw %d" index;
               start_at;
               end_at = -1;
               cls = Det;
               det = [];
               env = [];
             })
  in
  let root =
    Span
      {
        id = b.label;
        parent = None;
        name = "run";
        start_at = 0;
        end_at = b.seq;
        cls = Det;
        det = [ ("label", Json.Str b.label) ];
        env = [];
      }
  in
  { label = b.label; items = (root :: List.rev b.rev_items) @ unclosed }

let item_id = function Span { id; _ } -> id | Event { id; _ } -> id

let span_ids t = List.map item_id t.items

let well_formed t =
  let ( let* ) = Result.bind in
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let* () =
    match
      List.filter
        (function
          | Span { parent = None; _ } -> true
          | Event { parent = None; _ } -> true
          | _ -> false)
        t.items
    with
    | [ Span { id; _ } ] when id = t.label -> Ok ()
    | [ Span { id; _ } ] -> err "root span %S does not match label %S" id t.label
    | [ Event { id; _ } ] -> err "root item %S is an event, not a span" id
    | [] -> err "no root span"
    | items -> err "%d parentless items" (List.length items)
  in
  let seen = Hashtbl.create 64 in
  let* () =
    List.fold_left
      (fun acc item ->
        let* () = acc in
        let id = item_id item in
        if Hashtbl.mem seen id then err "duplicate id %S" id
        else begin
          Hashtbl.replace seen id item;
          Ok ()
        end)
      (Ok ()) t.items
  in
  let* () =
    List.fold_left
      (fun acc item ->
        let* () = acc in
        match item with
        | Span { id; start_at; end_at; _ } ->
            if end_at < start_at then err "span %S not closed" id
            else if start_at < 0 then err "span %S has negative start" id
            else Ok ()
        | Event _ -> Ok ())
      (Ok ()) t.items
  in
  List.fold_left
    (fun acc item ->
      let* () = acc in
      let id = item_id item in
      let parent, start_at, end_at =
        match item with
        | Span { parent; start_at; end_at; _ } -> (parent, start_at, end_at)
        | Event { parent; at; _ } -> (parent, at, at)
      in
      match parent with
      | None -> Ok ()
      | Some pid -> (
          match Hashtbl.find_opt seen pid with
          | None -> err "item %S has unknown parent %S" id pid
          | Some (Event _) -> err "item %S has event parent %S" id pid
          | Some (Span { start_at = ps; end_at = pe; _ }) ->
              if ps > start_at then
                err "parent %S opened after child %S" pid id
              else if pe < end_at then
                err "parent %S closed before child %S" pid id
              else Ok ()))
    (Ok ()) t.items

let strip t =
  let items =
    List.filter_map
      (function
        | Span { cls = Env; _ } | Event { cls = Env; _ } -> None
        | Span s -> Some (Span { s with env = [] })
        | Event e -> Some (Event { e with env = [] }))
      t.items
  in
  { t with items }
