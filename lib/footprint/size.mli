(** Footprint-size computations (Sections 3.4-3.8 of the paper).

    Two families of engines are provided.

    {b Rectangular tiles} (Section 3.7).  A rectangular tile is given by
    its bound vector [lambda]; the tile contains the iterations
    [0 <= i_k <= lambda_k], hence [prod (lambda_k + 1)] points.  The
    engines accept any [G]: zero columns are dropped (Example 1), a
    maximal independent column subset replaces a column-deficient [G]
    (Section 3.4.1), zero rows (loop indices the reference ignores) are
    eliminated, and rank-deficient rows (projections such as [A[i+j]])
    are handled by a zonotope-volume / lattice-index estimate with exact
    enumeration as ground truth for small tiles (Section 3.8).

    {b Hyperparallelepiped tiles} (Sections 3.4-3.6).  A general tile is
    given by its [L] matrix (rows are the tile edge vectors, Definition 2);
    sizes follow Equation 2 and Theorem 2 and require the (column-reduced)
    [G] to have full row rank.

    The [*_poly] variants return the size symbolically as a polynomial in
    the variables [x_k = lambda_k + 1] (one per loop dimension); these
    drive the optimizer and reproduce the paper's printed cost
    expressions, e.g. Example 8's [x0*x1*x2 + 2*x1*x2 + 3*x0*x2 + 4*x0*x1]. *)

open Intmath
open Matrixkit

exception Unsupported of string
(** Raised when a parallelepiped engine meets a [G] outside its domain
    (rank-deficient rows after column reduction). *)

val theorem1_applies : Imat.t -> bool
(** Sufficient condition for [S(LG)] to coincide with the footprint:
    [G] unimodular (Theorem 1). *)

(** {1 Rectangular tiles} *)

val rect_single : lambda:int array -> g:Imat.t -> int
(** Exact-or-estimated number of distinct data elements accessed through
    one reference [(G, _)] by the tile [0..lambda] (offset irrelevant).
    Exact whenever the reduced [G] has independent rows (Theorem 5 /
    Proposition 3); otherwise exact by enumeration up to an internal
    budget, then estimated. *)

val rect_cumulative :
  exact:bool -> lambda:int array -> g:Imat.t -> spread:Ivec.t -> int
(** Cumulative footprint of a uniformly intersecting class over a
    rectangular tile.  With [exact:true] and a full-row-rank reduced [G],
    uses Lemma 3's exact union size (falling back to [2 * single] for
    non-intersecting translates); with [exact:true] and a rank-deficient
    reduced [G] (projections, dependent rows) the union is enumerated
    exactly up to an internal budget - the Theorem 4 linearization is
    unusable there for degenerate tiles (a trip-count-1 tile with zero
    spread must equal the single footprint).  With [exact:false], always
    Theorem 4's linearized form. *)

val rect_single_poly : nesting:int -> g:Imat.t -> Mpoly.t
(** Symbolic footprint size in [x_k = lambda_k + 1]. *)

val rect_cumulative_poly :
  nesting:int -> g:Imat.t -> spread:Ivec.t -> Mpoly.t
(** Symbolic Theorem 4: [single + sum_i |u_i| * d(single)/dx_i] where
    [u] solves [u * G' = spread'] on the reduced matrix.  For square
    nonsingular reduced [G] this is exactly the paper's formula. *)

val rect_traffic_poly : nesting:int -> g:Imat.t -> spread:Ivec.t -> Mpoly.t
(** The communication part only: [cumulative - single] (the terms that
    survive when [|det L|] is pinned by load balancing; cf. Figure 9's
    discussion). *)

val lattice_spread : g:Imat.t -> offsets:Ivec.t list -> Rat.t array option
(** The spread measured in {e lattice coordinates}: write each offset in
    the basis of the reduced [G]'s rows and take per-coordinate
    [max - min].  [None] when the reduced [G] is not square nonsingular.

    Definition 8 takes max-min in the {e data} space and only then maps
    to lattice coordinates; when [G] is skewed and the offsets mix signs,
    that can under-measure the true translation (e.g. [G = [[1,1],[0,1]]]
    with offsets [(0,0)] and [(2,-2)]: the data spread [(2,2)] has
    coordinates [(2,0)] but the actual translation is [(2,-4)]).  The
    lattice-coordinate spread bounds every pairwise translation and
    coincides with the paper's value on all of its examples. *)

val rect_cumulative_poly_class :
  nesting:int -> g:Imat.t -> offsets:Ivec.t list -> Mpoly.t
(** Theorem 4 with the lattice-coordinate spread when available (falling
    back to the Definition 8 spread otherwise) - the engine the cost
    model uses. *)

(** {1 Hyperparallelepiped tiles} *)

val pped_single : l:Qmat.t -> g:Imat.t -> Rat.t
(** Equation 2: [|det (L G')|] on the column-reduced [G'].  Raises
    {!Unsupported} if the reduced [G] has dependent rows. *)

val pped_cumulative : l:Qmat.t -> g:Imat.t -> spread:Ivec.t -> Rat.t
(** Theorem 2: [|det LG| + sum_i |det LG_{i->spread}|]. *)

val pped_cumulative_float :
  l:float array array -> g:Imat.t -> spread:Ivec.t -> float
(** Float variant of {!pped_cumulative}.  The parallelepiped optimizer's
    reported costs are this one divided by the lattice index; its search
    evaluates the same value by Cramer's rule. *)

val pped_terms_symbolic :
  nesting:int -> g:Imat.t -> spread:Ivec.t -> Mpoly.t list
(** Theorem 2 fully symbolically: the determinants [det LG] and
    [det LG_{i->spread}] as polynomials in the [nesting^2] entries of a
    generic tile matrix [L] (polynomial variable [i*l + j] is [L_ij];
    print with {!Matrixkit.Pmat.entry_names}).  The theorem's value is
    the sum of absolute values of these at any concrete [L] - these are
    the expressions Example 9 displays.  Raises {!Unsupported} like the
    other parallelepiped engines. *)

val float_det : float array array -> float
(** Determinant by partial-pivot LU, on a copy of its argument. *)

val float_det_in_place : float array array -> float
(** {!float_det} without the copy: the same operations, eliminating in
    the argument itself (its rows are permuted and overwritten).  The
    argument may be wider than it is tall: the determinant is that of
    its leading square block, and the columns past it are eliminated
    with the rows, so appended right-hand sides come out forward
    substituted (unless the block is singular).  The parallelepiped
    optimizer runs it on a scratch matrix. *)

(** {1 Reduction diagnostics} *)

type reduction = {
  kept_cols : int list;  (** maximal independent columns (3.4.1) *)
  kept_rows : int list;  (** non-zero rows of the column-reduced G *)
  g_reduced : Imat.t;  (** [G[kept_rows][kept_cols]] *)
  spread_reduced : Ivec.t;
  full_row_rank : bool;
      (** true when the reduced matrix is square nonsingular, i.e. the
          reference is one-to-one on the kept loop dimensions *)
}

val reduce : g:Imat.t -> spread:Ivec.t -> reduction
(** The common reduction pipeline, exposed for tests and reports. *)
