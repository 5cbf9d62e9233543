module Quirkset = Eywa_quirkset.Quirkset

type quirk =
  | Sibling_glue_missing
  | Sibling_glue_missing_wildcard
  | Wildcard_loop_crash
  | Servfail_with_answer
  | Missing_cname_loop_record
  | Out_of_zone_record_returned
  | Out_of_zone_mishandled
  | Wrong_rcode_star_rdata
  | Wrong_rcode_ent_wildcard
  | Dname_name_replaced_by_query
  | Wildcard_dname_wrong
  | Dname_not_recursive
  | Wildcard_one_label
  | Glue_aa_flag
  | Aa_zone_cut_ns
  | Invalid_wildcard_match
  | Nested_wildcards_broken
  | Duplicate_answer_records
  | Synth_wildcard_not_dname
  | Cname_chain_not_followed
  | Wrong_rcode_cname_target
  | Empty_answer_wildcard
  | Missing_aa_flag
  | Inconsistent_loop_unroll
  | Star_query_synthesis

let quirk_to_string = function
  | Sibling_glue_missing -> "sibling-glue-missing"
  | Sibling_glue_missing_wildcard -> "sibling-glue-missing-wildcard"
  | Wildcard_loop_crash -> "wildcard-loop-crash"
  | Servfail_with_answer -> "servfail-with-answer"
  | Missing_cname_loop_record -> "missing-cname-loop-record"
  | Out_of_zone_record_returned -> "out-of-zone-record-returned"
  | Out_of_zone_mishandled -> "out-of-zone-mishandled"
  | Wrong_rcode_star_rdata -> "wrong-rcode-star-rdata"
  | Wrong_rcode_ent_wildcard -> "wrong-rcode-ent-wildcard"
  | Dname_name_replaced_by_query -> "dname-name-replaced-by-query"
  | Wildcard_dname_wrong -> "wildcard-dname-wrong"
  | Dname_not_recursive -> "dname-not-recursive"
  | Wildcard_one_label -> "wildcard-one-label"
  | Glue_aa_flag -> "glue-aa-flag"
  | Aa_zone_cut_ns -> "aa-zone-cut-ns"
  | Invalid_wildcard_match -> "invalid-wildcard-match"
  | Nested_wildcards_broken -> "nested-wildcards-broken"
  | Duplicate_answer_records -> "duplicate-answer-records"
  | Synth_wildcard_not_dname -> "synth-wildcard-not-dname"
  | Cname_chain_not_followed -> "cname-chain-not-followed"
  | Wrong_rcode_cname_target -> "wrong-rcode-cname-target"
  | Empty_answer_wildcard -> "empty-answer-wildcard"
  | Missing_aa_flag -> "missing-aa-flag"
  | Inconsistent_loop_unroll -> "inconsistent-loop-unroll"
  | Star_query_synthesis -> "star-query-synthesis"

let all_quirks =
  [
    Sibling_glue_missing; Sibling_glue_missing_wildcard; Wildcard_loop_crash;
    Servfail_with_answer; Missing_cname_loop_record; Out_of_zone_record_returned;
    Out_of_zone_mishandled; Wrong_rcode_star_rdata; Wrong_rcode_ent_wildcard;
    Dname_name_replaced_by_query; Wildcard_dname_wrong; Dname_not_recursive;
    Wildcard_one_label; Glue_aa_flag; Aa_zone_cut_ns; Invalid_wildcard_match;
    Nested_wildcards_broken; Duplicate_answer_records; Synth_wildcard_not_dname;
    Cname_chain_not_followed; Wrong_rcode_cname_target; Empty_answer_wildcard;
    Missing_aa_flag; Inconsistent_loop_unroll; Star_query_synthesis;
  ]

exception Crashed of string

let name_has_star n = List.exists (fun l -> String.contains l '*') n

let rdata_has_star (r : Rr.t) =
  match r.rdata with
  | Rr.Target n -> name_has_star n
  | Rr.Address s | Rr.Text s -> String.contains s '*'
  | Rr.Soa_data -> false

let remove_last xs =
  match List.rev xs with [] -> [] | _ :: rev_rest -> List.rev rev_rest

(* Every deviation is gated on [has]. Each consult sits behind the
   cheaper conditions that decide whether its quirk could matter, so a
   run consults few quirks and difftest can share it between more
   implementations. *)
let lookup ?(quirks = Quirkset.of_list []) zone (q : Message.query) =
  let has = Quirkset.has quirks in
  let soa_rrs =
    List.filter (fun (r : Rr.t) -> r.rtype = Rr.SOA) (Zone.records_at zone zone.origin)
  in
  let zone_has_wildcard =
    List.exists (fun (r : Rr.t) -> Name.is_wildcard r.owner) zone.Zone.records
  in
  let respond ?(aa = true) ?(answer = []) ?(authority = []) ?(additional = []) rcode
      =
    { Message.rcode; aa; answer; authority; additional }
  in
  let positive answer = respond Message.NOERROR ~answer in
  let nodata answer = respond Message.NOERROR ~answer ~authority:soa_rrs in
  let nxdomain answer =
    let rcode =
      if answer <> [] && has Wrong_rcode_cname_target then Message.NOERROR
      else Message.NXDOMAIN
    in
    respond rcode ~answer ~authority:soa_rrs
  in
  let referral cut ns_rrs answer =
    let glue =
      if has Sibling_glue_missing then []
      else if zone_has_wildcard && has Sibling_glue_missing_wildcard then []
      else
        Zone.glue_for zone (List.filter_map Rr.target ns_rrs)
    in
    let aa = has Aa_zone_cut_ns in
    ignore cut;
    if glue <> [] && has Glue_aa_flag then
      (* glue promoted to authoritative data: it lands in the answer
         section rather than additional *)
      respond Message.NOERROR ~aa ~answer:(answer @ glue) ~authority:ns_rrs
    else respond Message.NOERROR ~aa ~answer ~authority:ns_rrs ~additional:glue
  in
  (* Chain resolution. [acc] carries records already placed in the
     answer section; [visited] the owner names already expanded. *)
  let rec resolve qname qtype acc visited depth : Message.response =
    if not (Zone.in_zone zone qname) then out_of_zone qname acc
    else if List.exists (Name.equal qname) visited then loop_detected acc
    else if depth > 8 || (depth > 2 && has Inconsistent_loop_unroll) then
      positive acc
    else begin
      match Zone.delegation_of zone qname with
      | Some (cut, ns_rrs) -> referral cut ns_rrs acc
      | None ->
          let at = Zone.records_at zone qname in
          if at <> [] then exact_match qname qtype at acc visited depth
          else try_dname qname qtype acc visited depth
    end
  and out_of_zone qname acc =
    if has Out_of_zone_record_returned then
      positive (acc @ [ Rr.v qname Rr.A (Rr.Address "10.0.0.99") ])
    else if has Out_of_zone_mishandled then
      respond Message.NXDOMAIN ~answer:acc ~authority:soa_rrs
    else positive acc
  and loop_detected acc =
    (* the two loop quirks compose: an implementation can both drop the
       closing record and mislabel the response code *)
    let answer = if has Missing_cname_loop_record then remove_last acc else acc in
    if has Servfail_with_answer then respond Message.SERVFAIL ~answer
    else positive answer
  and exact_match qname qtype at acc visited depth =
    let cnames = List.filter (fun (r : Rr.t) -> r.rtype = Rr.CNAME) at in
    if qtype <> Rr.CNAME && cnames <> [] then begin
      let rr = List.hd cnames in
      let acc = acc @ [ rr ] in
      if has Cname_chain_not_followed then positive acc
      else
        match Rr.target rr with
        | None -> positive acc
        | Some target -> resolve target qtype acc (qname :: visited) (depth + 1)
    end
    else begin
      let matches = List.filter (fun (r : Rr.t) -> r.rtype = qtype) at in
      if matches <> [] then positive (acc @ matches) else nodata acc
    end
  and try_dname qname qtype acc visited depth =
    let dnames =
      List.filter
        (fun (r : Rr.t) ->
          r.rtype = Rr.DNAME && Name.is_proper_suffix ~suffix:r.owner qname)
        zone.Zone.records
    in
    let deepest =
      List.fold_left
        (fun best (r : Rr.t) ->
          match best with
          | None -> Some r
          | Some (b : Rr.t) ->
              if Name.label_count r.owner > Name.label_count b.owner then Some r
              else best)
        None dnames
    in
    let wildcard_available = Zone.wildcards_matching zone qname <> [] in
    match deepest with
    | Some rr when not (wildcard_available && has Synth_wildcard_not_dname) -> (
        match Rr.target rr with
        | None -> nodata acc
        | Some dname_target -> (
            match
              Name.substitute_suffix ~old_suffix:rr.owner ~new_suffix:dname_target
                qname
            with
            | None -> nodata acc
            | Some new_name ->
                let shown =
                  if has Dname_name_replaced_by_query then { rr with Rr.owner = qname }
                  else rr
                in
                let synth = Rr.v qname Rr.CNAME (Rr.Target new_name) in
                let acc = acc @ [ shown; synth ] in
                if qtype = Rr.CNAME then positive acc
                else if depth > 0 && has Dname_not_recursive then positive acc
                else resolve new_name qtype acc (qname :: visited) (depth + 1)))
    | Some _ | None -> try_wildcard qname qtype acc visited depth
  and try_wildcard qname qtype acc visited depth =
    let matching = Zone.wildcards_matching zone qname in
    let matching =
      if has Wildcard_one_label then
        List.filter
          (fun (r : Rr.t) ->
            match Name.wildcard_base r.owner with
            | Some base -> Name.label_count qname = Name.label_count base + 1
            | None -> false)
          matching
      else matching
    in
    let matching =
      if has Nested_wildcards_broken then List.rev matching else matching
    in
    let matching =
      if matching = [] && has Invalid_wildcard_match then
        (* also match the wildcard's own base name *)
        List.filter
          (fun (r : Rr.t) ->
            match Name.wildcard_base r.owner with
            | Some base -> Name.equal base qname
            | None -> false)
          zone.Zone.records
      else matching
    in
    match matching with
    | [] -> ent_check qname acc
    | w :: _ -> wildcard_expand qname qtype w acc visited depth
  and wildcard_expand qname qtype (w : Rr.t) acc visited depth =
    let group = Zone.records_at zone w.owner in
    let synth_owner =
      if name_has_star qname && has Star_query_synthesis then w.owner else qname
    in
    let synthesize (r : Rr.t) = { r with Rr.owner = synth_owner } in
    let cnames = List.filter (fun (r : Rr.t) -> r.rtype = Rr.CNAME) group in
    let dnames = List.filter (fun (r : Rr.t) -> r.rtype = Rr.DNAME) group in
    if qtype <> Rr.CNAME && cnames <> [] then begin
      let rr = synthesize (List.hd cnames) in
      let acc = acc @ [ rr ] in
      match Rr.target rr with
      | None -> positive acc
      | Some target ->
          if
            Name.wildcard_matches ~wildcard:w.owner target
            && has Wildcard_loop_crash
          then raise (Crashed "wildcard CNAME loop")
          else if has Cname_chain_not_followed then positive acc
          else resolve target qtype acc (qname :: visited) (depth + 1)
    end
    else if qtype <> Rr.DNAME && dnames <> [] && qtype <> Rr.CNAME then begin
      (* wildcard-owned DNAME: the match behaves like a rewrite of the
         whole query name *)
      let rr = List.hd dnames in
      if has Wildcard_dname_wrong then positive (acc @ [ synthesize rr ])
      else
        match Rr.target rr with
        | None -> nodata acc
        | Some target ->
            if
              Name.wildcard_matches ~wildcard:w.owner target
              && has Wildcard_loop_crash
            then raise (Crashed "wildcard DNAME loop")
            else begin
              let shown =
                if has Dname_name_replaced_by_query then { rr with Rr.owner = qname }
                else rr
              in
              let synth = Rr.v qname Rr.CNAME (Rr.Target target) in
              let acc = acc @ [ shown; synth ] in
              resolve target qtype acc (qname :: visited) (depth + 1)
            end
    end
    else begin
      let matches = List.filter (fun (r : Rr.t) -> r.rtype = qtype) group in
      if matches <> [] then
        if has Empty_answer_wildcard then positive acc
        else positive (acc @ List.map synthesize matches)
      else nodata acc
    end
  and ent_check qname acc =
    if Zone.node_exists zone qname then begin
      let below_has_star =
        List.exists
          (fun (r : Rr.t) ->
            Name.is_proper_suffix ~suffix:qname r.owner && name_has_star r.owner)
          zone.Zone.records
      in
      if below_has_star && has Wrong_rcode_ent_wildcard then
        respond Message.NXDOMAIN ~answer:acc ~authority:soa_rrs
      else nodata acc
    end
    else nxdomain acc
  in
  let finalize (r : Message.response) =
    let r =
      if List.exists rdata_has_star r.answer && has Wrong_rcode_star_rdata then
        { r with Message.rcode = Message.NXDOMAIN }
      else r
    in
    let r =
      if r.answer <> [] && has Duplicate_answer_records then
        { r with Message.answer = r.answer @ r.answer }
      else r
    in
    if (r.aa || r.authority <> []) && has Missing_aa_flag then
      { r with Message.aa = false; authority = [] }
    else r
  in
  if not (Zone.in_zone zone q.qname) then
    Message.Reply (respond Message.REFUSED ~aa:false)
  else
    match resolve q.qname q.qtype [] [] 0 with
    | r -> Message.Reply (finalize r)
    | exception Crashed m -> Message.Crash m
