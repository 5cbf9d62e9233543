type peer_type = Client | Non_client | External

let should_reflect ~from_ ~to_ =
  match from_ with
  | External | Client -> true
  | Non_client -> (
      match to_ with Client | External -> true | Non_client -> false)

let reflect ~cluster_id ~from_ ~to_ (route : Route.t) =
  if not (should_reflect ~from_ ~to_) then None
  else begin
    let tag = (cluster_id, cluster_id) in
    let internal = function Client | Non_client -> true | External -> false in
    if internal from_ && internal to_ then
      if List.mem tag route.Route.communities then None
      else Some { route with Route.communities = route.Route.communities @ [ tag ] }
    else Some route
  end
