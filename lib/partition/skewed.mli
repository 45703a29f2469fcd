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

    The search does not take Theorem 2's [n+1] determinants per class.
    With [u = a G1^-1] for the class's column-selected [G1] and reduced
    spread row [a], replacing row [i] of [L G1] by [a] gives
    [(L with row i <- u) G1], whose determinant is [det L * x_i * det G1]
    by Cramer's rule, where [x L = u].  A class's term divided by its
    lattice index is therefore [w |det L| (1 + |x|_1)], and at the
    renormalized [s L] it is [w V (1 + |x|_1 / s)].  Each call computes
    every class's [u] once, exactly ({!Qmat.inv}); each evaluation
    eliminates [L^T] once, with the [u]s appended, on a scratch matrix
    of its own, then back-substitutes once per class.  Its values equal
    Theorem 2 up to rounding.  {!objective}, [rounded_cost] and
    [rect_cost] keep the determinant form: {!Footprint.Size}'s
    [pped_cumulative_float] divided by the lattice index, summed over
    the classes. *)

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
