type version = Old | Current

type bug = {
  quirk : Lookup.quirk;
  description : string;
  bug_type : string;
  new_bug : bool;
}

type t = { name : string; tested_by_scale : bool; bugs : bug list }

let bug quirk description bug_type new_bug = { quirk; description; bug_type; new_bug }

let all =
  [
    {
      name = "bind";
      tested_by_scale = true;
      bugs =
        [
          bug Lookup.Sibling_glue_missing "Sibling glue record not returned."
            "Wrong Additional" false;
          bug Lookup.Inconsistent_loop_unroll "Inconsistent loop unrolling."
            "Wrong Answer" true;
        ];
    };
    {
      name = "coredns";
      tested_by_scale = true;
      bugs =
        [
          bug Lookup.Wildcard_loop_crash "Wildcard CNAME and DNAME loop."
            "Server Crash" false;
          bug Lookup.Sibling_glue_missing "Sibling glue record not returned."
            "Wrong Additional" false;
          bug Lookup.Servfail_with_answer "Returns SERVFAIL yet gives an answer."
            "Wrong Answer" true;
          bug Lookup.Missing_cname_loop_record "Missing record for CNAME loop."
            "Wrong Answer" true;
          bug Lookup.Out_of_zone_record_returned
            "Returns a non-existent out-of-zone record." "Wrong Answer" true;
          bug Lookup.Wrong_rcode_star_rdata "Wrong RCODE when '*' is in RDATA."
            "Wrong Return Code" false;
          bug Lookup.Wrong_rcode_ent_wildcard
            "Wrong RCODE for empty non-terminal wildcard." "Wrong Return Code" true;
        ];
    };
    {
      name = "gdnsd";
      tested_by_scale = false;
      bugs =
        [
          bug Lookup.Sibling_glue_missing "Sibling glue record not returned."
            "Wrong Additional" false;
        ];
    };
    {
      name = "nsd";
      tested_by_scale = true;
      bugs =
        [
          bug Lookup.Dname_not_recursive "DNAME not applied recursively."
            "Wrong Answer" false;
          bug Lookup.Wrong_rcode_star_rdata "Wrong RCODE when '*' is in RDATA."
            "Wrong Return Code" false;
        ];
    };
    {
      name = "hickory";
      tested_by_scale = true;
      bugs =
        [
          bug Lookup.Wildcard_loop_crash "Wildcard CNAME and DNAME loop."
            "Server Crash" false;
          bug Lookup.Out_of_zone_mishandled
            "Incorrect handling of out-of-zone record." "Wrong Answer" true;
          bug Lookup.Wildcard_one_label "Wildcard match only one label."
            "Wrong Answer" false;
          bug Lookup.Wrong_rcode_ent_wildcard
            "Wrong RCODE for empty non-terminal wildcard." "Wrong Return Code" true;
          bug Lookup.Wrong_rcode_star_rdata "Wrong RCODE when '*' is in RDATA."
            "Wrong Return Code" true;
          bug Lookup.Glue_aa_flag "Glue records returned with authoritative flag."
            "Wrong Flags" false;
          bug Lookup.Aa_zone_cut_ns
            "Authoritative flag set for zone cut NS records." "Wrong Flags" false;
        ];
    };
    {
      name = "knot";
      tested_by_scale = true;
      bugs =
        [
          bug Lookup.Dname_name_replaced_by_query
            "DNAME record name replaced by query." "Wrong Answer" true;
          bug Lookup.Wildcard_dname_wrong "Wildcard DNAME leads to wrong answer."
            "Wrong Answer" true;
          bug Lookup.Dname_not_recursive "DNAME not applied recursively."
            "Wrong Answer" false;
          bug Lookup.Star_query_synthesis
            "Incorrect record synthesis when '*' is in query." "Wrong Answer" false;
        ];
    };
    {
      name = "powerdns";
      tested_by_scale = true;
      bugs =
        [
          bug Lookup.Sibling_glue_missing_wildcard
            "Sibling glue record not returned due to wildcard." "Wrong Additional"
            true;
        ];
    };
    {
      name = "technitium";
      tested_by_scale = false;
      bugs =
        [
          bug Lookup.Sibling_glue_missing "Sibling glue record not returned."
            "Wrong Additional" false;
          bug Lookup.Synth_wildcard_not_dname
            "Synthesized wildcard instead of applying DNAME." "Wrong Answer" true;
          bug Lookup.Invalid_wildcard_match "Invalid wildcard match." "Wrong Answer"
            false;
          bug Lookup.Nested_wildcards_broken
            "Nested wildcards not handled correctly." "Wrong Answer" true;
          bug Lookup.Duplicate_answer_records "Duplicate records in answer section."
            "Wrong Answer" false;
          bug Lookup.Wrong_rcode_ent_wildcard
            "Wrong RCODE for empty nonterminal wildcard." "Wrong Return Code" false;
        ];
    };
    {
      name = "yadifa";
      tested_by_scale = true;
      bugs =
        [
          bug Lookup.Cname_chain_not_followed "CNAME chains are not followed."
            "Wrong Answer" false;
          bug Lookup.Missing_cname_loop_record "Missing record for CNAME loop."
            "Wrong Answer" false;
          bug Lookup.Wrong_rcode_cname_target "Wrong RCODE for CNAME target."
            "Wrong Return Code" false;
        ];
    };
    {
      name = "twisted";
      tested_by_scale = false;
      bugs =
        [
          bug Lookup.Empty_answer_wildcard
            "Empty answer section with wildcard records." "Wrong Answer" false;
          bug Lookup.Missing_aa_flag
            "Missing authority flag and empty authority section." "Wrong Flags" false;
          bug Lookup.Wrong_rcode_ent_wildcard
            "Wrong RCODE for empty nonterminal wildcard." "Wrong Return Code" false;
          bug Lookup.Wrong_rcode_star_rdata "Wrong RCODE when '*' is in RDATA."
            "Wrong Return Code" false;
        ];
    };
  ]

let find name = List.find_opt (fun impl -> impl.name = name) all

let quirks impl version =
  match version with
  | Old -> List.map (fun b -> b.quirk) impl.bugs
  | Current ->
      if impl.tested_by_scale then
        (* previously known bugs were fixed upstream *)
        List.filter_map (fun b -> if b.new_bug then Some b.quirk else None) impl.bugs
      else List.map (fun b -> b.quirk) impl.bugs

let serve impl version zone q =
  Lookup.lookup ~quirks:(Eywa_quirkset.Quirkset.of_list (quirks impl version)) zone q

let bug_catalog =
  List.concat_map (fun impl -> List.map (fun b -> (impl.name, b)) impl.bugs) all
