(* The reference difftest and attribution: every implementation served
   and rendered on its own, and every quirk of every suspect tried by a
   fresh run. [Difftest.observe] and [Difftest.attribute] must equal
   them; they use only [Difftest]'s public functions. *)

module Difftest = Eywa_difftest.Difftest
module Quirkset = Eywa_quirkset.Quirkset

let observe ~impls ~render serve =
  List.map
    (fun (impl, quirks) ->
      { Difftest.impl; fields = render (serve (Quirkset.of_list quirks)) })
    impls

(* Sequential, in test order; pairs in first-occurrence order. *)
let attribute ~suspects ~impls ~render ~prepare tests =
  let found = ref [] in
  List.iter
    (fun t ->
      match prepare t with
      | None -> ()
      | Some serve -> (
          let observations = observe ~impls ~render serve in
          let serve quirks = serve (Quirkset.of_list quirks) in
          match Difftest.compare_all observations with
          | [] -> ()
          | ds ->
              List.iter
                (fun impl ->
                  let active =
                    Option.value (List.assoc_opt impl impls) ~default:[]
                  in
                  let with_all = serve active in
                  List.iter
                    (fun q ->
                      if
                        serve (List.filter (fun x -> x <> q) active) <> with_all
                        && not (List.mem (impl, q) !found)
                      then found := (impl, q) :: !found)
                    active)
                (suspects ds)))
    tests;
  List.rev !found
