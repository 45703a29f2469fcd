(** The general case of [G] (Section 3.8).

    When the (column-reduced) reference matrix has more loop dimensions
    than independent columns, the footprint is the image of a box under a
    projection and [prod (lambda_k + 1)] over-counts.  The paper notes
    closed forms for nesting 1 and 2 and resorts to "table lookup when
    the elements of G are small" for nesting 3 with a one-dimensional
    array.  This module implements:

    - an exact O(|b|) closed-form count for two-variable linear forms
      [{a*x + b*y}] (the l = 2, d = 1 case),
    - an exact residue sweep for longer forms [{sum_k a_k x_k}], which
      computes the paper's lookup-table entry on demand, and
    - the glue that upgrades {!Size.rect_single} for rank-1 projections.

    All counts are over the box [0 <= x_k <= lambda_k]. *)

val count_linear_form_2 : a:int -> b:int -> l1:int -> l2:int -> int
(** Exact number of distinct values of [a*x + b*y], [0 <= x <= l1],
    [0 <= y <= l2].  [a] and [b] need not be positive; zero coefficients
    are allowed. *)

val count_linear_form : coeffs:int array -> lambda:int array -> int
(** Exact distinct-value count of [sum_k coeffs_k * x_k] over the box.
    Cost grows with the coefficient magnitudes and nesting, not with the
    box volume.  This is the paper's lookup-table entry, computed on
    demand by a residue sweep over the value range (up to an internal
    budget, then the range itself). *)

val rect_single : lambda:int array -> g:Matrixkit.Imat.t -> int option
(** Exact footprint size over a rectangular tile when the column-reduced
    [G] has rank 1 (a one-dimensional image): [Some count].  [None] when
    the reference is outside this module's domain (callers fall back to
    {!Size.rect_single}). *)
