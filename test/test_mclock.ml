(* Tests for the monotonic clock: raw readings never decrease - the
   property the Unix.gettimeofday -> Mclock migration is guarded by. *)

module Mclock = Runtime.Mclock

let checkb = Alcotest.(check bool)

let test_now_monotonic () =
  let prev = ref (Mclock.now ()) in
  for _ = 1 to 10_000 do
    let t = Mclock.now () in
    if t < !prev then Alcotest.failf "Mclock.now went backwards";
    prev := t
  done;
  let a = Mclock.now_ns () in
  let b = Mclock.now_ns () in
  checkb "now_ns non-decreasing" true (Int64.compare b a >= 0)

let () =
  Alcotest.run "mclock"
    [
      ( "clock",
        [ Alcotest.test_case "now is monotonic" `Quick test_now_monotonic ] );
    ]
