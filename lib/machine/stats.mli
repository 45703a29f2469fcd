(** Event counters collected by a simulation run. *)

type t = {
  mutable accesses : int;
  mutable reads : int;
  mutable writes : int;  (** includes accumulates *)
  mutable sync_ops : int;  (** accumulate (l$) operations, Appendix A *)
  mutable hits : int;
  mutable misses : int;
  mutable cold_misses : int;  (** first touch of the address by the proc *)
  mutable coherence_misses : int;
      (** re-fetch of a line the processor once held but lost to an
          invalidation or downgrade *)
  mutable replacement_misses : int;  (** lost to finite-cache eviction *)
  mutable invalidations : int;  (** lines invalidated in remote caches *)
  mutable upgrades : int;  (** S->M transitions without data transfer *)
  mutable writebacks : int;  (** dirty lines flushed (eviction/downgrade) *)
  mutable local_fills : int;  (** miss served by the local memory module *)
  mutable remote_fills : int;
  mutable network_messages : int;
  mutable network_hops : int;
  unique_per_proc : int array;
      (** distinct lines touched by each processor, which is its count of
          cold misses: the measured cumulative footprint *)
}

val create : nprocs:int -> t
val touched : t -> int array
(** Per-processor footprint sizes. *)

val miss_rate : t -> float
val pp : Format.formatter -> t -> unit
