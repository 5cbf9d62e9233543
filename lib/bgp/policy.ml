module Quirkset = Eywa_quirkset.Quirkset

type prefix_list_entry = {
  seq : int;
  permit : bool;
  prefix : Prefix.t;
  ge : int option;
  le : int option;
}

type prefix_list = { pl_name : string; entries : prefix_list_entry list }

type match_clause =
  | Match_prefix_list of string
  | Match_community of (int * int)
  | Match_any

type set_clause =
  | Set_local_pref of int
  | Set_med of int
  | Set_community of (int * int)
  | Prepend_as of int

type stanza = {
  stanza_seq : int;
  stanza_permit : bool;
  matches : match_clause list;
  sets : set_clause list;
}

type route_map = { rm_name : string; stanzas : stanza list }

let entry_matches ?(quirks = Quirkset.of_list []) entry (p : Prefix.t) =
  let has = Quirkset.has quirks in
  let plen = p.Prefix.len in
  if
    entry.prefix.Prefix.len = 0
    && (entry.ge <> None || entry.le <> None)
    && has Quirks.Prefix_set_zero_masklength
  then true
  else if not (Prefix.contains entry.prefix p) then false
  else begin
    match (entry.ge, entry.le) with
    | None, None ->
        plen = entry.prefix.Prefix.len
        || (plen > entry.prefix.Prefix.len && has Quirks.Prefix_list_ge_match)
    | Some ge, None -> plen >= ge
    | None, Some le -> plen >= entry.prefix.Prefix.len && plen <= le
    | Some ge, Some le -> plen >= ge && plen <= le
  end

let prefix_list_permits ?quirks pl (p : Prefix.t) =
  let entries =
    List.stable_sort (fun a b -> compare a.seq b.seq) pl.entries
  in
  let rec first = function
    | [] -> false
    | e :: rest -> if entry_matches ?quirks e p then e.permit else first rest
  in
  first entries

let clause_matches ?quirks ~prefix_lists clause (route : Route.t) =
  match clause with
  | Match_any -> true
  | Match_prefix_list name -> (
      match List.find_opt (fun pl -> pl.pl_name = name) prefix_lists with
      | None -> false
      | Some pl -> prefix_list_permits ?quirks pl route.Route.prefix)
  | Match_community c -> List.mem c route.Route.communities

let apply_sets sets (route : Route.t) =
  List.fold_left
    (fun (r : Route.t) set ->
      match set with
      | Set_local_pref lp -> { r with Route.local_pref = lp }
      | Set_med med -> { r with Route.med = med }
      | Set_community c ->
          if List.mem c r.Route.communities then r
          else { r with Route.communities = r.Route.communities @ [ c ] }
      | Prepend_as asn -> { r with Route.as_path = Aspath.prepend asn r.Route.as_path })
    route sets

let apply_route_map ?quirks ~prefix_lists rm route =
  let stanzas =
    List.stable_sort (fun a b -> compare a.stanza_seq b.stanza_seq) rm.stanzas
  in
  let rec first = function
    | [] -> None
    | s :: rest ->
        if List.for_all (fun c -> clause_matches ?quirks ~prefix_lists c route) s.matches
        then if s.stanza_permit then Some (apply_sets s.sets route) else None
        else first rest
  in
  first stanzas
