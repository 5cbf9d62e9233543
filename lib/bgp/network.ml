module Quirkset = Eywa_quirkset.Quirkset

type neighbor = {
  peer_as : int;
  peer_in_confed : bool;
  peer_kind : Reflect.peer_type;
  import_map : string option;
  export_map : string option;
  replace_as : (int * bool) option;
}

type router = {
  rname : string;
  asn : int;
  confed : Confed.config option;
  cluster_id : int;
  prefix_lists : Policy.prefix_list list;
  route_maps : Policy.route_map list;
}

type rib = Route.t list

let find_map router name =
  List.find_opt (fun (rm : Policy.route_map) -> rm.Policy.rm_name = name)
    router.route_maps

let apply_named_map ?quirks router map_name routes =
  match map_name with
  | None -> routes
  | Some name -> (
      match find_map router name with
      | None -> routes (* an undefined map permits everything *)
      | Some rm ->
          List.filter_map
            (fun r ->
              Policy.apply_route_map ?quirks ~prefix_lists:router.prefix_lists rm r)
            routes)

let session ?quirks router (n : neighbor) =
  Confed.agree ?quirks router.confed ~local_as:router.asn ~peer_as:n.peer_as
    ~peer_in_confed:n.peer_in_confed

let receive ?(quirks = Quirkset.of_list []) router ~from_ routes =
  match session ~quirks router from_ with
  | Confed.Session_mismatch -> []
  | sess ->
      routes
      (* AS-path loop detection: drop routes already carrying our AS
         (or confederation id) *)
      |> List.filter (fun (r : Route.t) ->
             let own =
               match router.confed with
               | Some c -> [ c.Confed.confed_id; c.Confed.sub_as ]
               | None -> [ router.asn ]
             in
             not (List.exists (fun a -> Aspath.contains a r.Route.as_path) own))
      |> apply_named_map ~quirks router from_.import_map
      |> List.map (fun (r : Route.t) ->
             match sess with
             | Confed.Ebgp ->
                 if Quirkset.has quirks Quirks.Local_pref_not_reset_ebgp then r
                 else { r with Route.local_pref = 100 }
             | Confed.Ibgp | Confed.Ebgp_confed | Confed.Session_mismatch -> r)

let advertise ?(quirks = Quirkset.of_list []) router ~to_ ~learned_from routes =
  match session ~quirks router to_ with
  | Confed.Session_mismatch -> []
  | sess ->
      routes
      |> List.filter_map (fun (r : Route.t) ->
             Reflect.reflect ~cluster_id:router.cluster_id ~from_:learned_from
               ~to_:to_.peer_kind r)
      |> apply_named_map ~quirks router to_.export_map
      |> List.map (fun (r : Route.t) ->
             {
               r with
               Route.as_path =
                 Confed.export_path ~quirks router.confed sess ~local_as:router.asn
                   ?replace_as:to_.replace_as r.Route.as_path;
             })

let best_rib routes =
  let by_prefix = Hashtbl.create 8 in
  List.iter
    (fun (r : Route.t) ->
      match Hashtbl.find_opt by_prefix r.Route.prefix with
      | None -> Hashtbl.replace by_prefix r.Route.prefix r
      | Some (cur : Route.t) ->
          if Route.better r cur then Hashtbl.replace by_prefix r.Route.prefix r)
    routes;
  Hashtbl.fold (fun _ r acc -> r :: acc) by_prefix []
  |> List.sort (fun (a : Route.t) (b : Route.t) ->
         Prefix.compare a.Route.prefix b.Route.prefix)

let run_chain ?(quirks = Quirkset.of_list []) ~r2 ~r2_in ~r2_out ~r3 ~r3_in
    ~injected () =
  let imported = receive ~quirks r2 ~from_:r2_in injected in
  let r2_rib = best_rib imported in
  let exported =
    advertise ~quirks r2 ~to_:r2_out ~learned_from:r2_in.peer_kind r2_rib
  in
  let r3_routes = receive ~quirks r3 ~from_:r3_in exported in
  let r3_rib = best_rib r3_routes in
  (r2_rib, r3_rib)
