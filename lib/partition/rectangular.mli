(** Rectangular loop partitioning (Section 3.7 + Section 3.6).

    Minimizes the sync-weighted cumulative footprint subject to the
    load-balance constraint [prod x_k = iterations / P] (the paper's
    [|det L| = IJK/P]) with the additional box constraints
    [1 <= x_k <= N_k].

    Two solvers cooperate:

    - a {e continuous} solver for the real relaxation.  The objective is a
      posynomial, hence convex in log coordinates; pairwise multiplicative
      coordinate descent with golden-section line search converges to the
      global optimum and reproduces the paper's Lagrange-multiplier
      answers (Examples 8-10);
    - a {e discrete} solver that enumerates processor grids (factorizations
      of [P] across the dimensions), evaluates the true integer cost of
      each, and returns the best feasible partition - this is what the
      Alewife compiler implementation needs to emit code. *)

open Intmath

type result = {
  grid : int array;  (** processors per dimension; product = nprocs *)
  sizes : int array;  (** tile iterations per dimension *)
  tile : Tile.t;
  predicted_misses_per_tile : int;
  predicted_traffic_per_tile : int;
  continuous_sizes : float array;  (** optimum of the real relaxation *)
  continuous_cost : float;
  cost : Cost.t;
}

val golden_section : steps:int -> (float -> float) -> float -> float -> float
(** [golden_section ~steps f lo hi] narrows [[lo, hi]] towards the
    minimum of a unimodal [f] for [steps] golden-ratio steps and returns
    the final bracket's midpoint. *)

val continuous_minimize :
  (float array -> float) -> volume:float -> extents:int array -> float array
(** Minimize an arbitrary posynomial-like objective over real [x] with
    [prod x = volume] and [1 <= x_k <= extents_k] by multiplicative
    coordinate descent (global for posynomials, which are convex in log
    coordinates). *)

val continuous_optimum :
  Cost.t -> volume:float -> extents:int array -> float array
(** {!continuous_minimize} applied to the nest's sync-weighted
    objective. *)

val optimize : Cost.t -> nprocs:int -> result
(** Full partitioning: continuous guidance plus exhaustive grid search.
    Raises [Invalid_argument] if [nprocs < 1]. *)

val aspect_ratio : Cost.t -> Rat.t array option
(** When the objective has the Abraham-Hudak shape
    [c0 * prod x + sum_k c_k * prod_{j<>k} x_j] (all classes with square
    nonsingular [G]; no lower-order terms), the unconstrained-aspect
    optimum satisfies [x_k proportional to c_k]; returns those
    coefficients (Example 8's 2:3:4).  [None] when lower-order terms make
    the closed form inapplicable. *)

val pp_result : Format.formatter -> result -> unit
