(** Concrete interpreter for MiniC.

    Executes a function of a typechecked program on concrete argument
    values. Loops and recursion are bounded by [fuel] (decremented per
    statement), so any input terminates — the property differential
    testing needs when replaying tests against the model. A loop whose
    frame repeats at its head, within one entry of the loop, would
    repeat that period until fuel ran out; the run ends there at once,
    with the [Out_of_fuel] result and the coverage that fuel exhaustion
    gives. Values are immutable and a call's frame is all the state its
    loops can see, so this is exact: only the fuel left differs, and
    nothing reads it.

    A program is compiled once into OCaml closures before it runs:
    every variable is resolved to a slot of a per-call frame, calls are
    bound to their compiled callee and enum members to constants, and
    branch edges are numbered [0..n-1] in the same pass that builds
    their label table. The compiled form is kept in a one-entry memo
    per domain, keyed by the physical identity of the program, so
    replaying many inputs through one program compiles it once. *)

type error =
  | Out_of_fuel
  | Runtime of string  (** out-of-bounds access, missing return, ... *)

val error_to_string : error -> string

type coverage
(** Branch edges hit during execution, one byte per edge id of one
    program. A fresh map is unbound; the first {!run} that uses it binds
    it to that run's program. Edges are labelled by structural position
    (function name + statement path + construct + outcome, e.g.
    ["f.0t.1#if:t"]), so the same program yields the same ids and
    labels in every run and on every domain. *)

val coverage_create : unit -> coverage

val covered : coverage -> string list
(** Labels of the edges hit, in edge-id order (the order of
    {!static_edges}). *)

val coverage_clear : coverage -> unit
(** Forget every hit but keep the map's binding, so one map can serve
    run after run of its program. *)

val coverage_count : coverage -> int
(** Number of distinct edges hit. *)

val coverage_news : global:coverage -> coverage -> int
(** Number of edges hit in the local map that the global map lacks.
    @raise Invalid_argument if the maps are bound to different
    programs. *)

val coverage_absorb : into:coverage -> coverage -> unit
(** Union the local map into [into], binding [into] if it is fresh.
    @raise Invalid_argument if the maps are bound to different
    programs. *)

val static_edges : Ast.program -> string list
(** All branch-edge labels the program can ever hit: the compiled edge
    table, in edge-id order. The dynamic coverage map is always a
    subset of this list. *)

type prepared
(** A program's entry function made ready to run many times: the
    natives resolved by callee id and the entry call's target found
    once, where {!run} does both on every call. *)

val prepare :
  ?string_bound:int ->
  ?natives:(string * (Value.t list -> Value.t)) list ->
  Ast.program ->
  string ->
  prepared
(** [prepare program fname] readies calls of [fname]; the arguments
    mean what they mean for {!run}. Preparing never fails: an unknown
    [fname] is the [Runtime] error of each {!exec}. *)

val exec :
  ?fuel:int ->
  ?coverage:coverage ->
  prepared ->
  Value.t list ->
  (Value.t, error) result
(** One call of a prepared entry with [args]: the same result, fuel
    use and coverage as {!run} with the same arguments. A loop whose
    frame repeats at its head ends the call as [Error Out_of_fuel] at
    once, with the coverage that running out of fuel gives.
    @raise Invalid_argument if [coverage] is bound to another
    program. *)

val run :
  ?fuel:int ->
  ?string_bound:int ->
  ?natives:(string * (Value.t list -> Value.t)) list ->
  ?coverage:coverage ->
  Ast.program ->
  string ->
  Value.t list ->
  (Value.t, error) result
(** [run program fname args] calls [fname] with [args]: {!prepare}
    then one {!exec}. Default fuel is [100_000], and a loop whose frame
    repeats at its head is cut as if it had run out; [string_bound] sizes
    locally declared string buffers (default [16]). [natives] supplies
    pure host-implemented functions (the harness's regex guards) looked
    up after the builtins and before program functions. Falling off the
    end of a non-void function is a [Runtime] error; for a void
    function it yields [Vunit].
    @raise Invalid_argument if [coverage] is bound to another
    program. *)
