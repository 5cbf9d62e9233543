(** The three-node test network of §4.2: R1 (an ExaBGP-style injector)
    feeds routes into R2; R2 runs the implementation under test and
    propagates to R3; differential testing compares the resulting
    routing tables on R2 and R3 across implementations. *)

type neighbor = {
  peer_as : int;
  peer_in_confed : bool;
  peer_kind : Reflect.peer_type;
  import_map : string option;
  export_map : string option;
  replace_as : (int * bool) option;  (** local-as N [replace-as] *)
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
(** Best route per prefix, sorted by prefix. *)

val receive :
  ?quirks:Quirks.t Eywa_quirkset.Quirkset.t ->
  router ->
  from_:neighbor ->
  Route.t list ->
  Route.t list
(** Import processing at a router: session agreement (a mismatched
    confederation session drops everything), AS-path loop detection,
    per-neighbor import route map, eBGP local-pref reset. *)

val advertise :
  ?quirks:Quirks.t Eywa_quirkset.Quirkset.t ->
  router ->
  to_:neighbor ->
  learned_from:Reflect.peer_type ->
  Route.t list ->
  Route.t list
(** Export processing: reflection rules (when this router has clients),
    export route map, confederations/AS-path updates. *)

val best_rib : Route.t list -> rib

val run_chain :
  ?quirks:Quirks.t Eywa_quirkset.Quirkset.t ->
  r2:router ->
  r2_in:neighbor ->
  r2_out:neighbor ->
  r3:router ->
  r3_in:neighbor ->
  injected:Route.t list ->
  unit ->
  rib * rib
(** Full pipeline: inject at R2 via [r2_in], install, advertise to R3
    via [r2_out], install at R3 via [r3_in]. Returns both RIBs. *)
