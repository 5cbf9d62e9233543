(** Finite-domain constraint terms.

    All values are integers: booleans are [0]/[1], characters are their
    codes, and enum members are their declared index. Every variable
    carries a finite domain of candidate values, which makes the theory
    decidable by search (see {!Solve}). This is the constraint language
    the symbolic executor compiles path conditions into. *)

(** The sort of a variable, kept for printing and test reconstruction. *)
type sort =
  | Sbool
  | Schar
  | Sint of int  (** unsigned, width in bits *)
  | Senum of string * int  (** enum name and number of members *)

type var = private {
  vid : int;  (** unique id, dense from 0 *)
  vname : string;
  sort : sort;
  domain : int array;
      (** allowed values, non-empty, strictly increasing, never
          [min_int] (the solver's unassigned marker) *)
}

(** A term. Build terms with the smart constructors below, which fold
    constants and apply algebraic simplifications eagerly. *)
type t =
  | Const of int
  | Var of var
  | Not of t
  | And of t * t
  | Or of t * t
  | Eq of t * t
  | Lt of t * t
  | Le of t * t
  | Add of t * t
  | Sub of t * t
  | Mul of t * t
  | Div of t * t  (** total: division by zero yields 0 *)
  | Mod of t * t  (** total: modulo zero yields 0 *)
  | Ite of t * t * t

(** Variable creation. Ids are dense from 0 so that assignments can be
    stored in flat arrays. The counter is {e per-domain}
    ([Domain.DLS]), never shared between domains: parallel synthesis
    jobs each allocate from their own counter, so identical generated
    code produces identical atoms regardless of which pool worker runs
    it. *)

val fresh_var : ?name:string -> sort -> int array -> var
val var_count : unit -> int

val with_fresh_ids : (unit -> 'a) -> 'a
(** [with_fresh_ids f] runs [f] in a fresh {e intern scope}: a fresh
    id allocator starting at 0, a fresh intern table (below) and a
    fresh value of every {!scope_local}, restoring the caller's
    afterwards (also on raise). Never call it in the middle of building
    or solving a constraint system. *)

val with_fresh_vids : (unit -> 'a) -> 'a
(** [with_fresh_vids f] runs [f] with a fresh id allocator starting at
    0 but in the caller's intern scope, restoring the caller's
    allocator afterwards. The synthesis pipeline runs every exploration
    in this, inside one {!with_fresh_ids} per run and pool worker:
    identical programs produce identical atoms — and therefore
    identical value rotations and identical test samples — at any pool
    size, while a term that two drafts share interns to one id, so
    what a {!scope_local} table learned in one draft answers in the
    next. Sharing the table changes no result: an intern id is a
    structural identity (a variable is its whole record, name and
    domain included), used for membership and memo keys only. *)

(** Per-domain interning. An intern table (a [Domain.DLS] sibling of
    the id allocator, scoped and restored by {!with_fresh_ids})
    assigns every structurally distinct term a dense id, which
    compares and hashes as an [int]; {!vars} is memoized through it.
    Terms stay plain trees, so getting the id itself hashes the term
    and compares it structurally against its bucket — O(size), not
    O(1): a hot loop should keep an id or a variable list it needs
    again rather than ask for it twice. All of this state is
    domain-local and scope-local: ids from different {!with_fresh_ids}
    scopes are unrelated and must never be mixed. A domain outside any
    scope has one of its own, which lives as long as the domain — so a
    pool worker's lives as long as its pool. *)

val intern_id : t -> int
(** Dense id of [t] in the calling domain's current intern scope; equal
    terms get equal ids, distinct terms distinct ids. *)

val scope_local : (unit -> 'a) -> unit -> 'a
(** [scope_local init] declares a domain-local value with the intern
    table's lifetime, for a memo keyed by intern ids: the returned
    getter yields the calling domain's value in its current intern
    scope, created by [init] on first use, dropped when the
    {!with_fresh_ids} scope ends (the caller's comes back). Declare it
    at module initialisation, once per value. *)

(** Smart constructors. *)

val tt : t
val ff : t
val const : int -> t
val of_bool : bool -> t
val var : var -> t
val not_ : t -> t
val and_ : t -> t -> t
val or_ : t -> t -> t
val eq : t -> t -> t
val neq : t -> t -> t
val lt : t -> t -> t
val le : t -> t -> t
val gt : t -> t -> t
val ge : t -> t -> t
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val div : t -> t -> t
val mod_ : t -> t -> t
val ite : t -> t -> t -> t

(** [vars t] lists the distinct variables of [t] in first-occurrence
    order. *)
val vars : t -> var list

(** [eval env t] fully evaluates [t]; [env vid] must return the value of
    every variable that occurs. Division-free, so total. *)
val eval : (int -> int) -> t -> int

(** [eval_var env t] is {!eval} with [env] given the variable itself
    rather than its id, so a caller can default a variable the model
    leaves out from its domain without first listing {!vars}. *)
val eval_var : (var -> int) -> t -> int

(** [peval env t] partially evaluates [t] under a partial assignment
    ([env vid = None] when unassigned). Short-circuits [And]/[Or]/[Ite]
    so a determined result can be reached before all variables are
    assigned. Returns [None] if the value is not yet determined. *)
val peval : (int -> int option) -> t -> int option

val rotate_index : rotate:int -> vid:int -> int -> int
(** Deterministic pseudo-random start index into a domain of the given
    size; [rotate = 0] always yields 0. Shared by the solver's
    value-order rotation and symbolic-value concretization so the two
    stay consistent within one sample. *)

val is_true : t -> bool
val is_false : t -> bool
val pp : Format.formatter -> t -> unit
val to_string : t -> string
