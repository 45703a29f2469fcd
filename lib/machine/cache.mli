(** The processors' coherent caches, kept as one line table.

    Every "line" here is a cache-line index: the row-major {!Layout}
    address of an element divided by the simulator's line size, so at
    unit lines (Section 2.2) it is the element's layout address.  The
    table holds one byte per (line, processor), indexed line-major
    ([line * nprocs + p]): the MSI state of processor [p]'s copy of the
    line, or why it has none.  Memory is [lines * nprocs] bytes, plus
    [nprocs * sets * ways] words of LRU order for a finite geometry.

    The full-map directory is a view of the table, not a structure of its
    own: a line's sharers are the processors holding it [Shared] or
    [Modified] ({!sharers}), its owner the one holding it [Modified]
    ({!owner}).

    The default geometry is the paper's analytical model - an infinite
    cache with no conflicts - and a finite set-associative LRU cache is
    available to study the "adjust the tile to fit" remark of
    Section 2.2. *)

type geometry =
  | Infinite
  | Finite of { sets : int; ways : int }
      (** per processor; direct-mapped when [ways = 1]; line [line] maps
          to set [line mod sets], so consecutive lines of memory fill
          consecutive sets *)

type state =
  | Never  (** never held: the next access is a cold miss *)
  | Shared
  | Modified
  | Lost_invalidation
      (** invalidated by another processor's write: the next access is a
          coherence miss *)
  | Lost_eviction
      (** evicted from a finite cache: the next access is a replacement
          miss *)

type t

val create : geometry -> nprocs:int -> lines:int -> t
(** Every byte starts [Never].  Raises [Invalid_argument] for a
    non-positive [nprocs], [sets] or [ways] or a negative [lines]. *)

val state : t -> int -> int -> state
(** [state t p line]: processor [p]'s copy of [line]. *)

val resident : t -> int -> int -> bool
(** [Shared] or [Modified]. *)

val sharers : t -> int -> int list
(** The processors holding the line, in ascending order. *)

val owner : t -> int -> int option
(** The processor holding the line [Modified], if any. *)

val touch : t -> int -> int -> unit
(** Make a resident line processor [p]'s most recently used (a hit). *)

val fill : t -> int -> int -> state -> (int * state) option
(** [fill t p line s] brings a non-resident line into [p]'s cache in
    state [s] ([Shared] or [Modified]), most recently used.  When [p]'s
    set was full, its least recently used line is evicted: its byte
    becomes [Lost_eviction] and [Some (victim, state it held)] is
    returned. *)

val set_state : t -> int -> int -> state -> unit
(** Change a resident line between [Shared] and [Modified]. *)

val invalidate : t -> int -> int -> unit
(** A resident line becomes [Lost_invalidation]. *)

val occupancy : t -> int -> int
(** Lines resident in processor [p]'s cache. *)
