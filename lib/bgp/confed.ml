module Quirkset = Eywa_quirkset.Quirkset

type config = { confed_id : int; sub_as : int; members : int list }

type session = Ibgp | Ebgp_confed | Ebgp | Session_mismatch

let session_to_string = function
  | Ibgp -> "ibgp"
  | Ebgp_confed -> "ebgp-confed"
  | Ebgp -> "ebgp"
  | Session_mismatch -> "session-mismatch"

let classify ?(quirks = Quirkset.of_list []) config ~local_as ~peer_as
    ~peer_in_confed =
  match config with
  | None -> if peer_as = local_as then Ibgp else Ebgp
  | Some c ->
      if peer_in_confed then
        if peer_as = c.sub_as then Ibgp else Ebgp_confed
      else if peer_as = c.sub_as && Quirkset.has quirks Quirks.Confed_sub_as_eq_peer
      then
        (* the bug: an external peer whose AS collides with our sub-AS
           is taken for an intra-confederation iBGP neighbour *)
        Ibgp
      else Ebgp

let agree ?(quirks = Quirkset.of_list []) config ~local_as ~peer_as ~peer_in_confed =
  let ours = classify ~quirks config ~local_as ~peer_as ~peer_in_confed in
  (* the peer's view of the session, computed without our quirks: for a
     peer outside the confederation the session is plain eBGP against
     our confederation id (or local AS) *)
  let theirs =
    match config with
    | None -> if peer_as = local_as then Ibgp else Ebgp
    | Some c ->
        if peer_in_confed then if peer_as = c.sub_as then Ibgp else Ebgp_confed
        else if peer_as = c.confed_id then Ibgp
        else Ebgp
  in
  if ours = theirs then ours else Session_mismatch

let export_path ?(quirks = Quirkset.of_list []) config session ~local_as ?replace_as
    path =
  (* [local-as N replace-as]: the AS this router just prepended (its
     confederation id, or its own AS) is presented as N instead. *)
  let apply_replace ~presented path =
    match replace_as with
    | Some (new_as, true) ->
        if config <> None && Quirkset.has quirks Quirks.Replace_as_confed_broken
        then path
        else Aspath.replace_as ~old_as:presented ~new_as path
    | Some (_, false) | None -> path
  in
  match session with
  | Ibgp -> path
  | Ebgp_confed -> (
      match config with
      | Some c -> Aspath.prepend_confed c.sub_as path
      | None -> path)
  | Ebgp -> (
      let stripped = Aspath.strip_confed path in
      match config with
      | Some c ->
          apply_replace ~presented:c.confed_id (Aspath.prepend c.confed_id stripped)
      | None -> apply_replace ~presented:local_as (Aspath.prepend local_as stripped))
  | Session_mismatch -> path
