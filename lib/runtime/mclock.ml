(* CLOCK_MONOTONIC without new C stubs: bechamel's monotonic_clock
   package (already a dependency of the bench harness) exposes exactly
   the [clock_gettime] call we need, as an unboxed [@@noalloc]
   external. *)

let now_ns () = Monotonic_clock.now ()

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9
