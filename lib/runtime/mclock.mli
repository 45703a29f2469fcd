(** The runtime's single time source: a monotonic clock.

    Every timestamp the runtime takes - wall-clock timings in {!Exec}
    and {!Kernel}, watchdog deadlines and heartbeat ages in
    {!Resilient}, trace span edges in {!Trace} - used to come from
    [Unix.gettimeofday], which follows the {e wall} clock: NTP steps and
    leap-second smears move it, in either direction, at any moment.  A
    backwards step makes a stall deadline computed as [start + budget]
    re-arm after it already fired (or never fire), and makes per-domain
    timings silently negative.  This module is the fix: all runtime
    timing goes through [clock_gettime(CLOCK_MONOTONIC)], reached
    without new C stubs via the [bechamel.monotonic_clock] package the
    bench harness already links.

    Seconds from this clock are relative to an arbitrary epoch (boot
    time on Linux): only differences are meaningful, which is all the
    runtime ever computes. *)

val now_ns : unit -> int64
(** Nanoseconds of [CLOCK_MONOTONIC] since its (arbitrary) epoch. *)

val now : unit -> float
(** {!now_ns} in seconds.  Strictly for differences; never compare with
    [Unix.gettimeofday]. *)
