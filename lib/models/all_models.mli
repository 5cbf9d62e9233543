(** The complete Table 2 roster. *)

val dns : Model_def.t list
val bgp : Model_def.t list
val smtp : Model_def.t list

val all : Model_def.t list
(** All thirteen models, DNS then BGP then SMTP (the TCP extension
    model is separate; see {!Tcp_models}). *)

val extensions : Model_def.t list
(** Models beyond the paper's Table 2: the TCP extension model
    ({!Tcp_models.server}). They are reachable by {!find} but not in
    {!all}, so the Table 2 and Table 3 loops stay at thirteen. *)

val find : string -> Model_def.t option
(** Look up by id among {!all} and {!extensions}, e.g. ["RMAP-PL"] or
    ["TCP"]. *)
