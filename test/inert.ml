(* The property every reference engine must have for difftest's shared
   runs to be sound: a quirk the run under a quirk set did not consult
   cannot change the run. Adding it to the set or removing it replays
   the same run — the same outcome, and the same consults. *)

module Quirkset = Eywa_quirkset.Quirkset

let run serve quirks =
  let set = Quirkset.of_list quirks in
  let outcome = serve set in
  (outcome, Quirkset.consulted set)

let unconsulted_are_inert ~all serve quirks =
  let ((_, consulted) as reference) = run serve quirks in
  List.for_all
    (fun q ->
      List.mem q consulted
      ||
      let without = List.filter (fun x -> x <> q) quirks in
      run serve (q :: without) = reference && run serve without = reference)
    all

(* A random subset of [all]: each quirk in with probability 1/3. *)
let gen_subset all =
  QCheck2.Gen.(
    map (List.filter_map Fun.id)
      (flatten_l
         (List.map
            (fun q -> map (fun n -> if n = 0 then Some q else None) (int_bound 2))
            all)))
