(** Sets over a bounded universe [0 .. universe - 1], one bit per
    element: every distinct-element count over addresses or values that
    fit a known range - the runtime's per-domain footprint rows, the
    simulator's distinct counter, the general-[G] residue sweep.

    A set pads its payload with a cache-line-sized guard region on both
    sides, so sets allocated back to back and written by different
    domains never share a line (no false sharing).  The record is
    [private] so that a pass over many sets (the runtime's
    [Measure.sharing]) can read payload bytes directly: bit [i] is bit [i land 7] of
    [Bytes.get bits (pad + i lsr 3)].  Elements lie in the universe, so
    the guard region stays zero and such a pass may read whole 64-bit
    words that run past the payload's last byte. *)

type t = private { bits : Bytes.t; universe : int }

val pad : int
(** Bytes of guard region before (and after) the payload. *)

val create : universe:int -> t
(** An empty set over [0 .. universe - 1].  Raises [Invalid_argument]
    on a negative universe. *)

val add : t -> int -> unit
(** Add an element; it must lie in the universe (unchecked). *)

val add_run : t -> int -> stride:int -> count:int -> unit
(** [add_run t start ~stride ~count] adds the [count] elements
    [start + j * stride], [j = 0 .. count - 1]: the addresses one
    reference's cursor passes over a row of [count] points.  Any stride
    is accepted: [0] adds [start] alone, a negative one is the same run
    walked up from its far end, and [1] sets whole bytes at a time.  A
    [count <= 0] adds nothing.  Every element must lie in the universe
    (unchecked).  Equal to folding {!add} over the run. *)

val mem : t -> int -> bool
(** Whether the set holds an element of its universe (unchecked). *)

val cardinal : t -> int
(** The number of elements.  Counts over several sets (unions, what
    they share) are [Runtime.Measure.sharing]'s, in one pass over all
    of them. *)
