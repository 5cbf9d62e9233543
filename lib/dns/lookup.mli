(** Authoritative DNS lookup.

    [lookup] with no quirks is the reference engine: RFC 1034 lookup
    with zone cuts and glue, RFC 4592 wildcards (deepest wildcard,
    whole-label matching), RFC 6672 DNAME rewriting with CNAME
    synthesis, chain following with loop detection, and correct
    NOERROR/NXDOMAIN/empty-non-terminal distinctions.

    Each {!quirk} injects one deviation observed in a real
    implementation (Table 3); the named implementations in {!Impls} are
    the reference engine plus their quirk sets. This mirrors how the
    paper's differential testing surface actually behaves without
    shipping ten third-party nameservers. *)

type quirk =
  | Sibling_glue_missing  (** glue records omitted from referrals *)
  | Sibling_glue_missing_wildcard  (** glue omitted when the zone has a wildcard *)
  | Wildcard_loop_crash  (** crash on wildcard CNAME/DNAME self-loops *)
  | Servfail_with_answer  (** SERVFAIL on loops but with a non-empty answer *)
  | Missing_cname_loop_record  (** drops the closing record of a CNAME loop *)
  | Out_of_zone_record_returned  (** fabricates a record for an out-of-zone target *)
  | Out_of_zone_mishandled  (** NXDOMAIN when a chain leaves the zone *)
  | Wrong_rcode_star_rdata  (** NXDOMAIN when an answer's rdata contains '*' *)
  | Wrong_rcode_ent_wildcard  (** NXDOMAIN for empty non-terminals owning wildcards *)
  | Dname_name_replaced_by_query  (** returned DNAME owner rewritten to the query *)
  | Wildcard_dname_wrong  (** wildcard-owned DNAME answered as a plain wildcard *)
  | Dname_not_recursive  (** only the first DNAME of a chain applied *)
  | Wildcard_one_label  (** wildcards match exactly one extra label *)
  | Glue_aa_flag  (** glue records promoted into the answer section *)
  | Aa_zone_cut_ns  (** aa set on referrals *)
  | Invalid_wildcard_match  (** wildcard also matches its own base name *)
  | Nested_wildcards_broken  (** shallowest wildcard chosen instead of deepest *)
  | Duplicate_answer_records  (** answer records duplicated *)
  | Synth_wildcard_not_dname  (** wildcard preferred over an applicable DNAME *)
  | Cname_chain_not_followed  (** chains truncated after the first CNAME *)
  | Wrong_rcode_cname_target  (** NOERROR when a chain target does not exist *)
  | Empty_answer_wildcard  (** wildcard matches yield an empty answer section *)
  | Missing_aa_flag  (** aa never set, authority section dropped *)
  | Inconsistent_loop_unroll  (** chains truncated after two hops *)
  | Star_query_synthesis  (** synthesis keeps the wildcard owner when '*' is in the query *)

val quirk_to_string : quirk -> string
val all_quirks : quirk list

val lookup :
  ?quirks:quirk Eywa_quirkset.Quirkset.t ->
  Zone.t ->
  Message.query ->
  Message.outcome
(** Serve a query under a quirk set (default: none — the reference
    engine). A quirk the run never {!Eywa_quirkset.Quirkset.has}-checks
    cannot change its outcome. *)
