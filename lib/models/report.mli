(** Markdown bug reports from triaged differential-testing results.

    The paper's endpoint is filing issues upstream ("we filed the issue
    on the Knot Gitlab... fixed within a week"); this renders a
    filing-ready report per implementation: the disagreement tuples,
    how often each fired, and — for DNS — a reproduction section with
    the §2.3-style zone file and query of a witness test. *)

val dns :
  ?jobs:int ->
  ?coverage:int * int ->
  model_id:string ->
  version:Eywa_dns.Impls.version ->
  Eywa_core.Testcase.t list ->
  string
(** Run differential testing over the tests on a [jobs]-domain pool
    and render the findings; each dissenting implementation's
    reproduction is the first test, in suite order, on which it
    dissents, found in the same pass.
    [coverage] is the suite's [(edges hit, edges total)] over the
    compiled models (see {!Eywa_fuzz.Coverage.of_suite}); when given,
    the report carries a model-coverage line. *)

val render_generic :
  title:string ->
  Eywa_difftest.Difftest.report ->
  string
(** Protocol-independent rendering of an existing report. *)
