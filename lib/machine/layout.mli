(** Row-major array layout: the one memory map of the repository.  The
    runtime ([Runtime.Exec]) indexes its operand buffer with it and the
    simulator ({!Sim}) indexes its line table with it, at every cache
    line size.  It also makes lines longer than one element meaningful
    (the paper assumes unit lines in Section 2.2 and points at
    Abraham-Hudak for the extension).

    Each array of a nest is laid out row-major over the bounding box of
    the region its references can touch, with its base address aligned up
    to [line_align] so lines never straddle two arrays.  The {e last}
    array dimension is contiguous in memory. *)

open Matrixkit
open Loopir

type t

val of_nest : ?line_align:int -> Nest.t -> t
(** [line_align] defaults to 1 (elements); pass the line size so bases
    are line-aligned. *)

val address : t -> string -> Ivec.t -> int
(** Global element address.  Raises [Invalid_argument] for an unknown
    array or a point outside its bounding box. *)

val element_of : t -> int -> string * int list
(** Reverse map of {!address}. *)

type cref = { c : int; m : int array }
(** A compiled affine reference: the element address at iteration [i]
    is [c + m . i].  [m.(k)] is the constant address delta of one step
    along loop axis [k]. *)

val compile : t -> Reference.t -> cref
(** Fold a reference [(G, a)] into its row-major index function, the
    one address map the runtime and the simulator share.  At every point
    [i] of the nest's iteration space, [c + m . i] is
    [address t name (Affine.apply index i)]; unlike {!address}, the
    compiled form checks no bounds. *)

val total_elements : t -> int
(** Footprint of the whole layout (sum of bounding-box volumes, plus
    alignment padding). *)

val pp : Format.formatter -> t -> unit
