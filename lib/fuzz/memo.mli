(** An exact set of input vectors: the fuzz loop's memo of every input
    one draw has already run.

    Membership is decided by structural equality ({!Eywa_minic.Value.equal}
    on every argument, names included), never by physical sharing; the
    hash only narrows the comparison to inputs whose full hashes are
    equal. *)

type input = (string * Eywa_minic.Value.t) list

val hash : input -> int
(** A non-negative hash that folds in every leaf of every argument,
    strings whole, so inputs that differ anywhere almost never collide.
    Polymorphic [Hashtbl.hash] stops after a few meaningful leaves and
    maps inputs holding many records to a handful of values. *)

type t

val create : int -> t
(** An empty memo sized for about [n] inputs. *)

val add : t -> input -> bool
(** Add an input; [true] iff it was not already in the memo. *)
