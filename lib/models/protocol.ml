module Difftest = Eywa_difftest.Difftest
module Pipeline = Eywa_core.Pipeline
module Testcase = Eywa_core.Testcase

(* What differential testing needs of a protocol. A stateless protocol
   serves each test alone; a stateful one drives it through the state
   graph extracted from the model's synthesis. *)
type adapter =
  | Stateless : {
      run :
        ?jobs:int ->
        ?sink:Eywa_core.Instrument.sink ->
        model_id:string ->
        Testcase.t list ->
        Difftest.report;
      quirks_triggered :
        ?jobs:int -> (string * Testcase.t list) list -> (string * 'q) list;
      quirk_to_string : 'q -> string;
    }
      -> adapter
  | Stateful : 'q Stateful_adapter.machine * ('q -> string) -> adapter

let adapter ~version (m : Model_def.t) =
  match m.protocol with
  | "DNS" ->
      Stateless
        {
          run =
            (fun ?jobs ?sink ~model_id tests ->
              Dns_adapter.run ?jobs ?sink ~model_id ~version tests);
          quirks_triggered =
            (fun ?jobs suites -> Dns_adapter.quirks_triggered ?jobs ~version suites);
          quirk_to_string = Eywa_dns.Lookup.quirk_to_string;
        }
  | "BGP" ->
      Stateless
        {
          run = Bgp_adapter.run;
          quirks_triggered = Bgp_adapter.quirks_triggered;
          quirk_to_string = Eywa_bgp.Quirks.to_string;
        }
  | "SMTP" -> Stateful (Smtp_adapter.machine, Eywa_smtp.Machine.quirk_to_string)
  | "TCP" -> Stateful (Tcp_adapter.machine, Eywa_tcp.Machine.quirk_to_string)
  | p -> invalid_arg (Printf.sprintf "model %s: unknown protocol %S" m.id p)

let report ?jobs ?sink ~version (m : Model_def.t) (synth : Pipeline.t) =
  match adapter ~version m with
  | Stateless a -> Ok (a.run ?jobs ?sink ~model_id:m.id synth.unique_tests)
  | Stateful (machine, _) ->
      Result.map
        (fun graph ->
          Stateful_adapter.run machine ?jobs ?sink ~graph synth.unique_tests)
        (Stateful_adapter.state_graph_for synth)

let replay ?jobs ~version (m : Model_def.t) =
  match adapter ~version m with
  | Stateless a -> Ok (fun tests -> a.run ?jobs ~model_id:m.id tests)
  | Stateful _ ->
      Error
        (Printf.sprintf
           "replay supports DNS and BGP models; %s tests are driven through \
            the state graph of a synthesis"
           m.protocol)

let named to_string = List.map (fun (impl, q) -> (impl, to_string q))

let root_causes ?jobs ~version models =
  match models with
  | [] -> Ok []
  | ((m : Model_def.t), _) :: _ -> (
      match adapter ~version m with
      | Stateless a ->
          Ok
            (named a.quirk_to_string
               (a.quirks_triggered ?jobs
                  (List.map
                     (fun ((m : Model_def.t), (s : Pipeline.t)) ->
                       (m.id, s.unique_tests))
                     models)))
      | Stateful (machine, quirk_to_string) -> (
          let suites =
            List.map
              (fun (_, (s : Pipeline.t)) ->
                Result.map
                  (fun graph -> (graph, s.unique_tests))
                  (Stateful_adapter.state_graph_for s))
              models
          in
          match List.find_map (function Error e -> Some e | Ok _ -> None) suites with
          | Some e -> Error e
          | None ->
              Ok
                (named quirk_to_string
                   (Stateful_adapter.attribute machine ?jobs
                      (List.map Result.get_ok suites)))))

type bug = {
  protocol : string;
  impl : string;
  quirk : string;
  description : string;
  bug_type : string;
  new_bug : bool;
}

let catalog =
  let row protocol impl quirk description bug_type new_bug =
    { protocol; impl; quirk; description; bug_type; new_bug }
  in
  List.map
    (fun (impl, (b : Eywa_dns.Impls.bug)) ->
      row "DNS" impl (Eywa_dns.Lookup.quirk_to_string b.quirk) b.description
        b.bug_type b.new_bug)
    Eywa_dns.Impls.bug_catalog
  @ List.map
      (fun (impl, (b : Eywa_bgp.Impls.bug)) ->
        row "BGP" impl (Eywa_bgp.Quirks.to_string b.quirk) b.description
          b.bug_type b.new_bug)
      Eywa_bgp.Impls.bug_catalog
  @ List.map
      (fun (impl, (b : Eywa_smtp.Impls.bug)) ->
        row "SMTP" impl (Eywa_smtp.Machine.quirk_to_string b.quirk)
          b.description b.bug_type b.new_bug)
      Eywa_smtp.Impls.bug_catalog
