(** Durable textual form for test cases.

    Generated test suites are expensive (k LLM drafts + symbolic
    execution), so users persist them and replay later — the paper's
    workflow stores Klee's outputs the same way. One test per line;
    the format is self-describing and round-trips every {!Value}
    shape. *)

val value_to_string : Eywa_minic.Value.t -> string
(** [T], [F], [C99], [I42], [E(RecordType,5)], [S"ab\000c"],
    [{Record rtyp=... ; name=...}], [[v; v]], [U]. *)

val value_of_string : string -> (Eywa_minic.Value.t, string) result

val quote : string -> string
(** Wrap a string in double quotes, escaping quotes, backslashes,
    newlines and non-printable bytes — the quoted token other
    line-based formats (the {!Pipeline} cache artifacts) embed
    arbitrary text with. *)

val unquote : string -> (string, string) result
(** Exact inverse of {!quote}; the whole input must be one quoted
    token. *)

(** Minimal JSON codec for the observability exporters (JSONL traces,
    Chrome [trace_event] files, metrics/summary JSON). [quote] above
    emits [\xNN] escapes which JSON parsers reject, so the trace layer
    must not reuse it. The printer is canonical and deterministic:
    shortest float representation that round-trips (always with a
    ['.'] or exponent so floats re-parse as [Float]), no insignificant
    whitespace, object fields kept in the order given. Strings are
    byte strings; bytes outside printable ASCII are escaped as
    [\u00XX], and only latin-1 [\uXXXX] escapes are accepted on
    input. *)
module Json : sig
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | Str of string
    | List of t list
    | Obj of (string * t) list

  val to_string : t -> string
  (** Compact canonical form. Raises [Invalid_argument] on non-finite
      floats — nothing the deterministic pipeline produces. *)

  val to_string_pretty : t -> string
  (** 2-space-indented form, trailing newline; parses back with
      {!of_string} to the same value. *)

  val of_string : string -> (t, string) result
  (** Accepts any JSON this module prints (and standard whitespace);
      the whole input must be one document. *)

  val member : string -> t -> t option
  (** [member key (Obj fields)] is the first binding of [key]. *)
end

val test_to_line : Testcase.t -> string
val test_of_line : string -> (Testcase.t, string) result

(** The line codec of the pipeline's cached-stage artifacts (a
    {!Pipeline} draw, a fuzz draw): a header line naming the format and
    its version, one ["name value"] line per field in a fixed order,
    then a counted block of {!test_to_line} lines. A reader that meets
    a wrong header, a missing or misnamed line or a malformed value
    returns [Error], never raises, so a torn or outdated cache entry
    decodes to [Error] and the stage recomputes it. *)
module Artifact : sig
  val to_string : header:string -> (string * string) list -> Testcase.t list -> string
  (** [header], one ["name value"] line per field in the order given,
      ["tests N"], then the [N] tests; every line ends in a newline. *)

  val quote_opt : string option -> string
  (** ["-"] for [None], else {!quote} — the field value {!quoted_opt}
      reads back. *)

  type reader
  (** A cursor over an artifact's lines, past its header. *)

  val reader : header:string -> string -> (reader, string) result
  (** [Error] unless the first line is exactly [header]. *)

  val field : reader -> string -> (string, string) result
  (** The value of the next line, which must be ["name value"]. *)

  val int : reader -> string -> (int, string) result
  val float : reader -> string -> (float, string) result
  (** Accepts the hex literals ([%h]) writers use for exact floats. *)

  val quoted_opt : reader -> string -> (string option, string) result

  val tests : reader -> (Testcase.t list, string) result
  (** The ["tests N"] line and the [N] test lines after it. *)
end

val save : string -> Testcase.t list -> unit
(** Write a suite to a file, one test per line with a header comment.
    Overwrites. *)

val load : string -> (Testcase.t list, string) result
(** Read a suite; blank lines and [#] comments are skipped. The first
    malformed line aborts with its message. *)
