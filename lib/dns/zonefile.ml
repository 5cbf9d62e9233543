let print (zone : Zone.t) =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "$ORIGIN %s\n" (Name.to_string zone.origin));
  List.iter
    (fun (r : Rr.t) -> Buffer.add_string buf (Rr.to_string r ^ "\n"))
    zone.records;
  Buffer.contents buf

let parse text =
  let lines =
    String.split_on_char '\n' text
    |> List.map String.trim
    |> List.filter (fun l -> l <> "" && not (String.length l > 0 && l.[0] = ';'))
  in
  let words l =
    String.split_on_char ' ' l |> List.filter (fun w -> w <> "")
  in
  match lines with
  | [] -> Error "empty zone file"
  | origin_line :: record_lines -> (
      match words origin_line with
      | [ "$ORIGIN"; origin ] ->
          let origin = Name.of_string origin in
          let parse_record l =
            match words l with
            | owner :: rtype :: rest -> (
                match Rr.rtype_of_string rtype with
                | None -> Error (Printf.sprintf "unknown record type %S" rtype)
                | Some rtype ->
                    let owner = Name.of_string owner in
                    let rdata =
                      match (rtype, rest) with
                      | (Rr.NS | Rr.CNAME | Rr.DNAME), target :: _ ->
                          Rr.Target (Name.of_string target)
                      | (Rr.A | Rr.AAAA), addr :: _ -> Rr.Address addr
                      | Rr.TXT, text :: _ -> Rr.Text (Scanf.sscanf text "%S" Fun.id)
                      | Rr.SOA, _ -> Rr.Soa_data
                      | _, [] -> Rr.Text ""
                    in
                    Ok (Rr.v owner rtype rdata))
            | _ -> Error (Printf.sprintf "malformed record line %S" l)
          in
          let rec go acc = function
            | [] -> Ok (Zone.v origin (List.rev acc))
            | l :: rest -> (
                match parse_record l with
                | Ok r -> go (r :: acc) rest
                | Error e -> Error e)
          in
          go [] record_lines
      | _ -> Error "missing $ORIGIN header")

let default_suffix = Name.of_string "test."

type test_record = { rname : string; rtype : Rr.rtype; rdata : string }

(* Re-root a model-level short name ("a.*", "", ".") under the suffix.
   Empty content maps to the suffix itself. *)
let reroot suffix short = Name.append (Name.of_string short) suffix

(* The distinguished rdata "*" denotes a target outside the zone, so
   generated tests can exercise out-of-zone chain handling (coredns and
   hickory both mishandle it, Table 3). *)
let out_of_zone_target = Name.of_string "outside.example."

let reroot_target suffix short =
  if short = "*" then out_of_zone_target else reroot suffix short

let build_zone ?(suffix = default_suffix) ?(extra_delegation = false) records =
  let apex =
    [
      Rr.v suffix Rr.SOA Rr.Soa_data;
      Rr.v suffix Rr.NS (Rr.Target (Name.of_string "ns1.outside.edu."));
    ]
  in
  let delegation =
    if extra_delegation then begin
      (* the cut lives at "b.<suffix>" — 'b' is in the lookup models'
         query alphabet, so generated queries can land under the cut —
         and its nameserver's glue is a sibling of the cut *)
      let child = Name.append (Name.of_string "b") suffix in
      let ns_target = Name.append (Name.of_string "ns.a") suffix in
      [
        Rr.v child Rr.NS (Rr.Target ns_target);
        Rr.v ns_target Rr.A (Rr.Address "10.0.0.53");
      ]
    end
    else []
  in
  let converted =
    List.map
      (fun r ->
        let owner = reroot suffix r.rname in
        let rdata =
          match r.rtype with
          | Rr.NS | Rr.CNAME | Rr.DNAME -> Rr.Target (reroot_target suffix r.rdata)
          | Rr.A | Rr.AAAA -> Rr.Address (if r.rdata = "" then "10.0.0.1" else r.rdata)
          | Rr.TXT -> Rr.Text r.rdata
          | Rr.SOA -> Rr.Soa_data
        in
        Rr.v owner r.rtype rdata)
      records
  in
  (* model tests may repeat records or regenerate the apex SOA; keep
     the first occurrence of each so the zone stays valid *)
  let all = apex @ delegation @ converted in
  let rev_dedup =
    List.fold_left
      (fun acc r -> if List.exists (Rr.equal r) acc then acc else r :: acc)
      [] all
  in
  Zone.v suffix (List.rev rev_dedup)

let build_query ?(suffix = default_suffix) qname qtype =
  { Message.qname = reroot suffix qname; qtype }
