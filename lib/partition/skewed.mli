(** General hyperparallelepiped (parallelogram) partitioning
    (Sections 3.2-3.6).

    The objective is Theorem 2's cumulative footprint summed over classes,
    normalized per class by the lattice index [|det G'|] so that the
    volume term counts {e distinct elements} rather than the volume of the
    bounding parallelepiped (for unimodular [G] the normalization is 1 and
    the objective is exactly the paper's).  The constraint is
    [|det L| = iterations / P].

    The solver is the paper's "standard numerical methods" step:
    multi-start coordinate descent over the entries of [L] with
    determinant renormalization, seeded from the rectangular optimum and
    from unit skews of it.  The continuous solution is then rounded to an
    integer [L] suitable for code generation.

    Each call reduces every class once (sync weight, lattice index,
    column-selected [G], spread row) and evaluates the objective on
    scratch matrices of its own; the results are bit-identical to
    reducing every class at every evaluation. *)

open Matrixkit

type result = {
  l : Imat.t;  (** integer tile matrix (rows are edge vectors) *)
  tile : Tile.t;
  continuous_l : float array array;
  continuous_cost : float;
  rounded_cost : float;
  rect_cost : float;  (** best rectangular cost, for comparison *)
  improves_on_rect : bool;
}

val objective : Cost.t -> float array array -> float
(** Normalized Theorem 2 objective at a real [L]; [infinity] when some
    class is outside the parallelepiped engine's domain. *)

val optimize : Cost.t -> nprocs:int -> result option
(** [None] when any class has rank(G) < nesting (the parallelepiped
    engine does not apply; use {!Rectangular}). *)

val pp_result : Format.formatter -> result -> unit
