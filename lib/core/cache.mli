(** Content-addressed cache for pipeline stage results.

    A stage result is keyed by a hash of {e everything it depends on}:
    the exact prompt texts, the effective sampling seed, the
    temperature, and every symex budget (ticks, paths, steps, solver
    decisions) — see {!Pipeline} for the exact part list. The key must
    never cover wall time, machine identity, or pool size: a key is a
    promise that equal keys denote byte-identical results on any host
    at any [jobs].

    Payloads are strings (the stage's serialized artifact), which the
    stage's decoder turns back into its result at {!lookup}. Lookups
    hit an in-memory table first; with a [dir], entries also persist
    to disk ([<dir>/<stage>-<digest>.eywa]) and survive across
    processes — a bench rerun or a CLI [--cache-dir] session starts
    warm. Disk entries embed the full canonical key, so a digest
    collision is detected on load and treated as a miss rather than
    returning the wrong artifact.

    All operations are mutex-guarded; hit/miss counters are exact even
    when several domains share one cache. *)

module Key : sig
  type t

  val v : stage:string -> (string * string) list -> t
  (** [v ~stage parts] builds a key from named dependency parts. The
      encoding is injective: part order, names, and values all
      distinguish keys (["k", "10"] vs ["k", "1"; "", "0"] collide on
      concatenation but not here). *)

  val stage : t -> string
  val digest : t -> string
  (** 16 hex chars (FNV-1a 64 of the canonical encoding) — stable
      across OCaml versions and architectures. *)

  val canonical : t -> string
  (** The full canonical encoding the digest summarizes. *)

  val equal : t -> t -> bool
end

type t

val create : ?dir:string -> unit -> t
(** In-memory cache; with [dir], also persisted there (the directory
    is created, with any missing parents, on first store). *)

val lookup :
  ?sink:Instrument.sink ->
  t ->
  Key.t ->
  decode:(string -> ('a, string) result) ->
  'a option
(** The stage artifact stored under the key, decoded: memory first,
    then disk (a disk entry that decodes is promoted to memory). An
    entry that is absent, or that [decode] rejects (a torn write, an
    older artifact version), is a miss: the stage recomputes it and
    its store overwrites the entry. Counts the hit or miss and, given
    [sink], emits the matching {!Instrument.Cache_hit}/[Cache_miss]
    event, so a hit always means replayed work. *)

val store : ?sink:Instrument.sink -> t -> Key.t -> string -> unit
(** Insert (and persist, with a [dir]). Overwrites silently: equal
    keys must mean equal payloads, so an overwrite is a no-op in
    content terms. A disk write that fails degrades to memory-only: it
    leaves no [.tmp] file behind, counts in {!write_failures} and,
    given [sink], emits {!Instrument.Cache_write_failed}. *)

val hits : t -> int
val misses : t -> int

val write_failures : t -> int
(** Stores whose disk write failed. *)

val to_list : t -> (string * string) list
(** [(stage ^ "-" ^ digest, payload)] pairs of the in-memory table,
    sorted by key — for comparing cache contents across runs. *)
