(** The one place that picks a model's protocol adapter by
    {!Model_def.protocol} (["DNS"], ["BGP"], ["SMTP"] or ["TCP"]).

    It also owns the inputs a protocol needs beyond a model's tests:
    the DNS implementation [version] (ignored by the other protocols),
    and, for the stateful protocols (SMTP, TCP), the state graph
    {!Stateful_adapter.state_graph_for} extracts from the model's
    synthesis. Raises [Invalid_argument] on a model of another
    protocol. *)

val report :
  ?jobs:int ->
  ?sink:Eywa_core.Instrument.sink ->
  version:Eywa_dns.Impls.version ->
  Model_def.t ->
  Eywa_core.Pipeline.t ->
  (Eywa_difftest.Difftest.report, string) result
(** Differential testing of a synthesized model's unique tests: the
    protocol adapter's [run], with its [jobs]/[sink] contract. [Error _]
    when no state graph can be extracted. *)

val replay :
  ?jobs:int ->
  version:Eywa_dns.Impls.version ->
  Model_def.t ->
  (Eywa_core.Testcase.t list -> Eywa_difftest.Difftest.report, string) result
(** Differential testing of a saved suite of the model's tests, without
    re-synthesis. [Error _] for a stateful protocol, whose tests need
    the state graph of a synthesis. *)

val root_causes :
  ?jobs:int ->
  version:Eywa_dns.Impls.version ->
  (Model_def.t * Eywa_core.Pipeline.t) list ->
  ((string * string) list, string) result
(** Quirk attribution over synthesized models of one protocol, in one
    adapter call over all their unique tests in order: the adapter's
    [quirks_triggered] pairs with each quirk rendered by the protocol's
    [quirk_to_string]. The models must share one protocol: the first
    model's picks the adapter. [Error _] when no state graph can be
    extracted. *)

type bug = {
  protocol : string;
  impl : string;
  quirk : string;  (** as {!root_causes} renders it *)
  description : string;  (** Table 3 wording *)
  bug_type : string;
  new_bug : bool;  (** not found by prior work *)
}

val catalog : bug list
(** The seeded bugs of Table 3: DNS, then BGP, then SMTP, each in its
    implementations' catalog order. *)
