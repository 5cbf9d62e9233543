(** The quirk set an engine runs under, with a log of the quirks it was
    asked about.

    Every reference engine (DNS lookup, the BGP pipeline, the SMTP and
    TCP machines) gates each of its deviations on {!has}, and on
    nothing else. So a run's path through the engine depends on the
    quirk set only through the answers to the quirks it {!consulted}:
    any other quirk set that agrees on those answers replays the same
    run. Differential testing relies on this to serve one engine run
    per quirk set whose answer could differ
    ({!Eywa_difftest.Difftest.run}). A set is meant for one run; it is
    mutable and must not be shared between domains. *)

type 'q t

val mem : 'q -> 'q list -> bool
(** [mem q l] is [List.mem q l]. When [q] is an immediate value (an
    [int], a [bool], a constant constructor: every quirk catalog of the
    four protocols) it compares with [==], which for an immediate is
    structural equality, instead of calling the polymorphic compare;
    any other [q] falls back to [List.mem]. *)

val of_list : 'q list -> 'q t
(** The set of the given quirks, with an empty log. *)

val has : 'q t -> 'q -> bool
(** Whether the quirk is in the set; records it as consulted. *)

val consulted : 'q t -> 'q list
(** The distinct quirks {!has} was asked about, enabled or not, in
    first-consult order. *)
