(** Loop nests in the shape of Figure 1: a (possibly empty) sequential
    outer loop around a perfect nest of [Doall] loops whose body is a set
    of affine array references.

    The framework assumes unit strides and a rectangular iteration space;
    [make] enforces both.  The optional [Doseq] outer loop is the paper's
    Figure 9 construction, used to expose steady-state coherence traffic. *)

type loop = { var : string; lower : int; upper : int }
(** Inclusive bounds; [lower <= upper]. *)

type t = private {
  name : string;
  seq : loop option;  (** optional outer sequential (time) loop *)
  loops : loop list;  (** the parallel [Doall] loops, outermost first *)
  body : Reference.t list;
}

val make :
  ?name:string -> ?seq:loop -> loop list -> Reference.t list -> t
(** Validates: at least one loop, distinct variable names, every reference's
    [G] has exactly [List.length loops] rows, bounds are non-empty. *)

val loop : string -> int -> int -> loop

val nesting : t -> int
(** Number of parallel loops [l]. *)

val vars : t -> string array
val bounds : t -> (int * int) array
val extents : t -> int array
(** Number of iterations per dimension: [upper - lower + 1]. *)

val iterations : t -> int
(** Total size of the parallel iteration space. *)

val steps : ?override:int -> t -> int
(** The outer sequential trip count: [override], else the [Doseq]
    extent, else 1.  Raises [Invalid_argument] for an [override] below 1. *)

val arrays : t -> string list
(** Distinct array names, in order of first appearance. *)

val references_to : t -> string -> Reference.t list

val array_extent_hints : t -> (string * int array) list
(** For each array, a conservative bounding-box extent per dimension,
    obtained by evaluating each subscript over the corner points of the
    iteration space.  Used by the simulator to size array storage. *)

val array_bounding_boxes : t -> (string * (int array * int array)) list
(** Like {!array_extent_hints} but returning the inclusive per-dimension
    [(lo, hi)] corners of each array's accessed region. *)

val pp : Format.formatter -> t -> unit
(** Pretty-prints in the paper's Doall pseudo-code style. *)

val to_string : t -> string
