(** Deterministic fault injection for the resilient runtime.

    A {!plan} is a list of {!injection}s, each naming a site - a domain,
    an outer sequential step, and the n-th tile the domain claims within
    that step - and an {!action} to perform there.  Plans are plain data:
    the resilient executor ({!Resilient}) interprets the actions, so the
    production paths ({!Pool.run}, {!Exec}) never see them and pay
    nothing when no plan is installed.

    Each injection fires {e once}: the first time a claim matches its
    site it is consumed.  This models transient faults and keeps
    retry-based recovery deterministic - the retried attempt re-reaches
    the site and finds the injection spent.  Plans are replayable from
    their string syntax (the [--fault-plan] flag):

    {v crash               crash whichever domain claims a tile first
    crash@d1            crash domain 1 at its first claim of step 1
    stall:250@s2        the first claimer of step 2 stalls for 250 ms
    corrupt@d2s1c3      domain 2 corrupts its 4th claimed tile of step 1
    crash;crash         two one-shot crashes (fires on two attempts) v}

    A site with an explicit [dD] marker fires only on that domain; a
    site without one fires on {e any} domain (still exactly once).  The
    wildcard is what keeps CI plans deterministic: with work-stealing,
    which domain claims which tile is a race, but {e some} domain
    claiming the n-th tile of a step is not. *)

type action =
  | Crash  (** the domain raises mid-step, as if its worker died *)
  | Stall of int
      (** the domain goes silent for this many milliseconds - the
          straggler the watchdog must detect *)
  | Corrupt
      (** the domain scribbles a NaN into one of its tile's write
          addresses and then raises, modelling a detected machine check:
          recovery must re-execute the tile to restore the value *)

type injection = {
  action : action;
  domain : int option;  (** 0-based domain index; [None] = any domain *)
  step : int;  (** 1-based outer sequential step (default 1) *)
  claim : int;  (** 0-based tile-claim ordinal within the step (default 0) *)
}

type plan
(** A set of one-shot injections plus their consumed/armed state. *)

val none : plan
(** The empty plan: {!fire} never returns an action. *)

val make : injection list -> plan
(** Raises [Invalid_argument] on negative sites or stall durations. *)

val injections : plan -> injection list

val fire : plan -> domain:int -> step:int -> claim:int -> (int * action) option
(** Consume and return the first still-armed injection matching the
    site, if any, as [(entry, action)] where [entry] indexes the plan's
    injection list - the stable identity a fired fault is reported
    under.  Thread-safe and one-shot {e per entry, globally}: the
    armed-flag CAS admits exactly one caller per entry, across
    concurrent claims, retried attempts, and degrade re-partitions (so
    a wildcard site re-reached after the domain count halves cannot
    double-count). *)

val armed : plan -> domain:int -> step:int -> claim:int -> bool
(** Whether a still-armed injection matches the site: what {!fire}
    would consume there, queried without consuming it. *)

val reset : plan -> unit
(** Re-arm every injection (for reusing one plan across runs). *)

val action_to_string : action -> string

val to_string : plan -> string
(** Replayable [--fault-plan] syntax, [";"]-separated. *)

val of_string : string -> (plan, string) result
(** Parse the syntax above: [ACTION\[@\[dD\]\[sS\]\[cC\]\]] where ACTION
    is [crash], [stall:MS] or [corrupt]; an omitted [dD] means any
    domain, omitted step defaults to 1, omitted claim to 0. *)

val pp : Format.formatter -> plan -> unit
