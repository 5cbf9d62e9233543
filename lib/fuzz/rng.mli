(** Seeded splittable PRNG for the fuzzer (splitmix64).

    Deterministic by construction: the stream is a pure function of
    the creation seed, independent of machine, wall clock, and pool
    size, so a fuzz draw seeded at [fuzz_seed + index] replays
    identically on any worker. *)

type t

val create : int -> t
(** A fresh generator; equal seeds yield equal streams. *)

val split : t -> int -> t
(** [split t i] derives an independent child stream from [t]'s current
    state and the label [i], without advancing [t]. Distinct labels
    give decorrelated streams. *)

val int : t -> int -> int
(** [int t n] is uniform-ish in [\[0, n)]. [n] must be positive. *)

val bool : t -> bool

val pick : t -> 'a list -> 'a
(** Uniform element of a non-empty list. *)
