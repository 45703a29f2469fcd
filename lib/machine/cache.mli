(** A single processor's coherent cache.

    Every "address" here is a cache-line index: the row-major
    {!Layout} address of an element divided by the simulator's line size,
    so at unit lines (Section 2.2) it is the element's layout address.
    Lines carry an MSI state; the directory drives downgrades and
    invalidations.
    The default configuration is the paper's analytical model - an
    infinite cache with no conflicts - and a finite set-associative LRU
    cache is available to study the "adjust the tile to fit" remark of
    Section 2.2. *)

type geometry =
  | Infinite
  | Finite of { sets : int; ways : int }
      (** direct-mapped when [ways = 1]; line [addr] maps to set
          [addr mod sets], so consecutive lines of memory fill
          consecutive sets *)

type state = Shared | Modified

type t

val create : geometry -> t

val lookup : t -> int -> state option
(** [None] when the line is not present (Invalid). *)

val insert : t -> int -> state -> int option
(** Insert or update a line; returns [Some victim] when a valid line had
    to be evicted (its address), [None] otherwise.  Updates LRU order. *)

val set_state : t -> int -> state -> unit
(** Change the state of a resident line (e.g. downgrade M->S). *)

val invalidate : t -> int -> unit
(** Drop the line if present. *)

val resident : t -> int -> bool
val occupancy : t -> int
