(** Test cases produced by the Test Generator (§3.6).

    Each test assigns a concrete value to every input argument of the
    model and records the model's own output — used only as a path
    label, never as ground truth, because differential testing supplies
    the oracle (§2.2). *)

type t = {
  inputs : (string * Eywa_minic.Value.t) list;  (** argument name, value *)
  result : Eywa_minic.Value.t option;  (** model output; [None] on crash paths *)
  bad_input : bool;  (** a validity guard rejected the inputs *)
  error : string option;  (** set on crash paths (the model itself crashed) *)
}

val input : t -> string -> Eywa_minic.Value.t
(** @raise Not_found if the argument is absent. *)

val input_string : t -> string -> string
(** Convenience: the C-string contents of a string input. *)

val key : t -> string
(** Canonical rendering of the inputs, and nothing else: uniqueness
    (the paper's "unique test cases") is uniqueness of keys. Two tests
    with equal keys give the implementations the same inputs, but they
    need not both reach them: the adapters serve no test whose
    [bad_input] or [error] is set, and those fields are not part of the
    key. So {!dedup} keeping one copy of a key decides whether its
    inputs are served. *)

val dedup : t list -> t list
(** Stable dedup by {!key}. *)

val dedup_keyed : t list -> (string * t) list
(** {!dedup}, each kept test paired with its {!key}. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
