module Difftest = Eywa_difftest.Difftest
module Testcase = Eywa_core.Testcase

let render_generic ~title (report : Difftest.report) =
  let buf = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  line "# %s" title;
  line "";
  line "%d tests executed; %d produced disagreements; %d unique root-cause tuples."
    report.total_tests report.disagreeing_tests
    (List.length report.tuples);
  List.iter
    (fun impl ->
      line "";
      line "## %s" impl;
      line "";
      line "| field | observed | majority | occurrences |";
      line "|---|---|---|---|";
      List.iter
        (fun ((d : Difftest.disagreement), count) ->
          let trim s = if String.length s > 70 then String.sub s 0 70 ^ "…" else s in
          line "| %s | `%s` | `%s` | %d |" d.d_field
            (trim (if d.d_got = "" then "(empty)" else d.d_got))
            (trim (if d.d_majority = "" then "(empty)" else d.d_majority))
            count)
        (Difftest.tuples_for report impl))
    (Difftest.impls_in_report report);
  Buffer.contents buf

(* The first test whose observations make this implementation dissent. *)
let dns_witness ~model_id ~version impl tests =
  List.find_opt
    (fun t ->
      match Dns_adapter.observations_for ~model_id ~version t with
      | None -> false
      | Some obs ->
          List.exists
            (fun (d : Difftest.disagreement) -> d.d_impl = impl)
            (Difftest.compare_all obs))
    tests

let dns ?coverage ~model_id ~version tests =
  let report = Dns_adapter.run ~model_id ~version tests in
  let base = render_generic ~title:(Printf.sprintf "Eywa findings: DNS %s model" model_id) report in
  let buf = Buffer.create (String.length base + 1024) in
  Buffer.add_string buf base;
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  (match coverage with
  | None -> ()
  | Some (hit, total) ->
      line "";
      line "Model edge coverage: %d / %d branch edges%s." hit total
        (if total > 0 then
           Printf.sprintf " (%.0f%%)" (100.0 *. float_of_int hit /. float_of_int total)
         else ""));
  List.iter
    (fun impl ->
      match dns_witness ~model_id ~version impl tests with
      | None -> ()
      | Some t -> (
          match Dns_adapter.artifacts_for ~model_id t with
          | None -> ()
          | Some (zone, query) ->
              line "";
              line "### Reproduction for %s" impl;
              line "";
              line "Zone file:";
              line "```";
              Buffer.add_string buf (Eywa_dns.Zonefile.print zone);
              line "```";
              line "Query: `%s %s`"
                (Eywa_dns.Name.to_string query.Eywa_dns.Message.qname)
                (Eywa_dns.Rr.rtype_to_string query.Eywa_dns.Message.qtype);
              (match Eywa_dns.Impls.find impl with
              | Some i ->
                  line "";
                  line "Observed response:";
                  line "```";
                  Buffer.add_string buf
                    (Eywa_dns.Message.outcome_to_string
                       (Eywa_dns.Impls.serve i version zone query));
                  line "```"
              | None -> ())))
    (Difftest.impls_in_report report);
  Buffer.contents buf
