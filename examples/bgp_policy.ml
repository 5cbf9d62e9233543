(* BGP policy testing: the RMAP-PL model of Fig. 11 and the CONFED
   model of §4.3.

   Builds the exact dependency graph of the paper's appendix (validity
   guards piped in front of the route-map matcher, helpers via call
   edges), generates tests, and replays them on the three-router
   network against FRR, GoBGP and Batfish — reproducing the prefix-list
   and confederation findings of Table 3.

   Run with: dune exec examples/bgp_policy.exe *)

module Model_def = Eywa_models.Model_def
module Bgp_models = Eywa_models.Bgp_models
module Bgp_adapter = Eywa_models.Bgp_adapter
module Difftest = Eywa_difftest.Difftest

let oracle = Eywa_llm.Gpt.oracle ()

let () =
  let collector = Eywa_core.Instrument.Collector.create () in
  let sink = Eywa_core.Instrument.Collector.sink collector in
  let run (m : Model_def.t) =
    match Model_def.synthesize ~sink ~k:6 ~oracle m with
    | Ok s ->
        Printf.printf "%s: %d unique tests\n%!" m.id (List.length s.unique_tests);
        (m.id, s.unique_tests)
    | Error e -> failwith e
  in
  let rmap = run Bgp_models.rmap_pl in
  let confed = run Bgp_models.confed in
  let open Eywa_core.Instrument in
  let s = Collector.summary collector in
  Printf.printf "pipeline: %d draws, %d symex ticks, %d paths\n"
    (Collector.get s Stat.draws)
    (Collector.get s Stat.symex_ticks)
    (Collector.get s Stat.paths_completed);

  print_endline "\n=== differential testing on the R1 -> R2 -> R3 chain ===";
  List.iter
    (fun (model_id, ts) ->
      let report = Bgp_adapter.run ~model_id ts in
      Printf.printf "[%s] %d tests, %d disagreeing, %d unique tuples\n" model_id
        report.Difftest.total_tests report.Difftest.disagreeing_tests
        (List.length report.Difftest.tuples);
      List.iteri
        (fun i (d, count) ->
          if i < 4 then
            Printf.printf "    (%s, %s) x%d\n" d.Difftest.d_impl d.Difftest.d_field
              count)
        report.Difftest.tuples)
    [ rmap; confed ];

  print_endline "\n=== root causes ===";
  let found = Bgp_adapter.quirks_triggered [ rmap; confed ] in
  List.iter
    (fun (impl, quirk) ->
      Printf.printf "  %-8s %s\n" impl (Eywa_bgp.Quirks.to_string quirk))
    found;

  (* the §4.3 anecdote, replayed directly: a router R inside a
     confederation whose sub-AS collides with its external neighbor
     N's AS number *)
  print_endline "\n=== the §4.3 confederation corner case ===";
  let config =
    Some { Eywa_bgp.Confed.confed_id = 100; sub_as = 65001; members = [ 65001 ] }
  in
  let session quirks =
    Eywa_bgp.Confed.agree ~quirks:(Eywa_quirkset.Quirkset.of_list quirks) config
      ~local_as:65001 ~peer_as:65001 ~peer_in_confed:false
  in
  Printf.printf "reference session: %s\n"
    (Eywa_bgp.Confed.session_to_string (session []));
  Printf.printf "buggy session:     %s\n"
    (Eywa_bgp.Confed.session_to_string
       (session [ Eywa_bgp.Quirks.Confed_sub_as_eq_peer ]))
