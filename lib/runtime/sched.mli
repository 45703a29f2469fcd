(** The one parallel step loop every executor runs.

    {!Exec}'s timed, observing and instrumented passes, {!Kernel.time}
    and the fault-tolerant {!Resilient} executor all step through their
    work here.  The loop owns what they share: claiming work from a
    {!source}, the tile/chunk/step/barrier {!Trace} spans, and the call
    to the step end.  Callers supply only the bodies - what running a
    tile or a chunk means - and the step end itself: one
    {!Pool.Barrier.arrive} whose last arriver {!reset}s the source, the
    resilient gate, or none where no data crosses domains. *)

type source
(** Where a domain's next piece of work comes from in each step. *)

val tiles : steal:bool -> nprocs:int -> int array -> source
(** Tile [t] belongs to domain [owners.(t)]; each domain runs its own
    tiles in order.  With [steal], a domain whose own queue is empty
    steals single tiles from the back of the fullest other queue
    ({!Pool.Deques}).  Raises [Invalid_argument] for an owner outside
    [0 .. nprocs - 1]. *)

val shared : total:int -> chunk:(remaining:int -> int) -> source
(** Self-scheduled chunks [\[lo, hi)] of one stream of [total] items,
    grabbed from a shared {!Pool.Counter}. *)

val reset : source -> unit
(** Refill the source for the next step.  Call it from one domain while
    the others are parked at the step end. *)

val run :
  trace:Trace.t ->
  source ->
  me:int ->
  steps:int ->
  tile:(int -> int -> unit) ->
  chunk:(int -> int -> unit) ->
  step_end:(int -> unit) option ->
  unit
(** Domain [me]'s part of [steps] steps: in each, claim until the
    source runs dry - [tile step t] per claimed tile inside a [Tile]
    span (one [Tiles_run] count each), [chunk lo hi] per shared chunk
    inside a [Chunk] span - then call [step_end step] inside a
    [Barrier] span.  With no [step_end] the next step follows at once,
    with no [Barrier] span: only for work whose domains share no
    written element and whose source needs no {!reset}.  A stolen tile also records a [Steal] instant.  On
    an exception the domain's open spans are closed before it
    propagates. *)
