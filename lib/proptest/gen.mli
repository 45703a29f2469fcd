(** Random affine loop-nest generation for the differential fuzzer.

    A {!case} is everything one oracle run needs: a nest (depth 1-3, small
    rectangular bounds, 1-6 references with random [(G, a)] index
    functions), a rectangular tile shape and a processor count.  In
    about two cases in five every innermost subscript is [var u + c]
    for the innermost loop [u], which no other subscript reads: such
    a body with one write-like reference and 1 to 5 reads runs the
    kernel's unit-stride rows.  The [G]
    matrices deliberately cover the paper's awkward corners: singular and
    dependent-column matrices, zero rows (reduction-style references),
    rank-1 projections like [A[i+j]], and non-unimodular skews - plus
    reuse of an earlier reference's [G] with a fresh offset so that
    uniformly intersecting classes with non-trivial spreads actually
    occur.  Extents and tile sizes may be 1, so degenerate trip-count-1
    dimensions are generated routinely. *)

open Loopir

type case = {
  seed : int;  (** run seed the case belongs to *)
  id : int;  (** case index within the run *)
  nest : Nest.t;
  tile : int array;  (** tile iterations per dimension, [1 <= t_k <= N_k] *)
  nprocs : int;  (** 1..4 *)
}

val generate : seed:int -> id:int -> case
(** Deterministic: depends only on [seed] and [id]. *)

val build :
  seed:int ->
  id:int ->
  ?seq:Nest.loop ->
  Nest.loop list ->
  Reference.t list ->
  tile:int array ->
  nprocs:int ->
  case
(** Re-assemble a case from parts (the shrinker's constructor).  Raises
    [Invalid_argument] on ill-formed parts, like {!Nest.make}. *)

val weight : case -> int
(** A strictly positive size measure the shrinker decreases: iteration
    count, reference count, matrix/offset magnitudes, tile volume,
    processor count.  Every shrink candidate must lower it, which bounds
    the shrink loop. *)

val pp : Format.formatter -> case -> unit
val to_string : case -> string
