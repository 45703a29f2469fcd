(** The one JSON writer behind every machine-readable artifact: the
    resilient {!Report}, the {!Trace} exports and the bench rows.

    The printer has no options; every strict-JSON rule lives here:
    strings are escaped per RFC 8259, non-finite floats print as
    [null], finite floats print as the shortest decimal that reads back
    to the same double, objects print as [{"key": value, ...}], and an
    array of objects puts each element on its own line. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
