(** A reusable pool of OCaml 5 domains: the execution substrate that
    stands in for Alewife's processors.

    The pool spawns its domains once; {!run} dispatches a job to every
    domain and blocks until all of them finish, so a [Doseq]-wrapped
    [Doall] body (Figure 9) re-executes across outer iterations without
    respawning domains.  Jobs receive a fresh sense-reversing
    {!Barrier.t} sized to the pool, which they use to separate outer
    sequential steps (all processors must finish step [t] before any
    starts [t+1], exactly the semantics the simulator assumes).

    Two dynamic-scheduling primitives realize the run-time baselines of
    {!Partition.Scheduling} with real contention instead of a
    deterministic deal: a shared chunk {!Counter} (cyclic, block-cyclic
    and guided self-scheduling are chunk-size policies over it) and
    per-domain work-stealing {!Deques}. *)

type t

val backoff : ?yielded:int ref -> int -> unit
(** Wait-loop backoff step, parameterized by the number of failed polls
    so far: a few [Domain.cpu_relax]es, then yields, then sleeps that
    double up to a 1.6 ms cap.  The cap keeps oversubscribed waiters
    responsive: a parked domain still wakes often enough to service
    abort flags and orphaned tiles ({!Resilient}).  Reset the
    counter whenever the poll makes progress.  [yielded] is incremented
    each time the step actually gives up the CPU (yield or sleep, not a
    [cpu_relax]) - the hook {!Trace}'s backoff-yield counter is fed
    from, optional so untraced waiters pay nothing. *)

val create : int -> t
(** Spawn a pool of [n >= 1] domains.  Domains may exceed the physical
    core count; the barrier spins with exponential backoff so
    oversubscribed pools still make progress. *)

val size : t -> int

exception Aborted
(** Raised inside surviving workers when a sibling's job raised: barrier
    waits turn into [Aborted] so no worker deadlocks waiting for a dead
    participant.  {!run} re-raises the original exception. *)

module Barrier : sig
  type b

  val wait : ?yielded:int ref -> b -> sense:bool ref -> unit
  (** Sense-reversing barrier: each participant keeps a local [sense]
      ref (initially [false]) and flips it per episode.  The last
      arriving domain releases the others.  Raises {!Aborted} if the
      pool's current job was aborted by a sibling's exception.
      [yielded] counts CPU give-ups while parked (see {!backoff}). *)

  val arrive :
    b -> sense:bool ref -> yielded:int ref -> release:(unit -> unit) -> unit
  (** {!wait} in which the last arriving domain runs [release] before
      letting the others go - the step end of {!Sched}, whose last
      arriver resets the claim source for the next step. *)
end

val run :
  ?watch:float * (unit -> unit) -> t -> (int -> Barrier.b -> unit) -> unit
(** [run t f] executes [f p barrier] on domain [p] for every
    [p < size t] and waits for all of them.  The barrier is fresh for
    this job and sized [size t].  If any [f p] raises, the remaining
    workers are released (their barrier waits raise {!Aborted}) and the
    first exception is re-raised here.  With [watch = (period, probe)]
    the caller also wakes every [period] seconds to call [probe ()],
    which must not raise: {!Resilient}'s watchdog. *)

val shutdown : t -> unit
(** Join all domains.  The pool is unusable afterwards. *)

val with_pool : int -> (t -> 'a) -> 'a
(** [create], apply, [shutdown] (also on exceptions). *)

module Counter : sig
  (** A shared iteration counter over [0 .. total): the self-scheduling
      device of Polychronopoulos & Kuck's GSS (the paper's reference
      [1]).  Each grab takes the next chunk atomically; the chunk-size
      policy distinguishes cyclic ([fun _ -> 1]), block-cyclic
      ([fun _ -> c]) and guided ([ceil remaining/P]) scheduling. *)

  type c

  val create : total:int -> c

  val next : c -> chunk:(remaining:int -> int) -> (int * int) option
  (** Atomically grab the next [\[lo, hi)] range, where
      [hi - lo = max 1 (chunk ~remaining)] clipped to [total].  [None]
      when the space is exhausted. *)

  val reset : c -> unit
  (** Rewind to 0 for the next sequential step (call from a single
      domain between barriers). *)
end

module Deques : sig
  (** Per-domain work-stealing deques.  Each domain pops items from
      the front of its own queue (preserving the locality order the
      compile-time tile gave it) and steals single items from the back
      of the fullest victim when its own queue runs dry. *)

  type d

  val create : lengths:int array -> d
  (** One deque per domain; deque [p] initially holds the indices
      [0 .. lengths.(p) - 1] of domain [p]'s preferred items. *)

  val pop : d -> me:int -> (int * int) option
  (** [(owner, i)]: a grabbed index [i] into [owner]'s item array -
      [owner = me] from the own front, otherwise stolen from a victim's
      back.  [None] when every queue is empty. *)

  val reset : d -> unit
  (** Refill every deque for the next sequential step. *)
end
