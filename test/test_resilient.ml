(* Tests for the fault-tolerant runtime: fault-plan parsing, watchdog
   timeouts, tile-level crash recovery, retry/degradation policies, and
   the invariant that a recovered run is bit-identical to a fault-free
   one. *)

open Loopart

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

module Fault = Runtime.Fault
module Report = Runtime.Report
module Resilient = Runtime.Resilient

let stencil () = Programs.stencil5 ~n:17 ~steps:2 ()

let ground_truth nest =
  let compiled = Runtime.Exec.compile nest in
  Runtime.Exec.sequential compiled ~steps:(Runtime.Exec.steps_of_nest nest)

let buffers_equal a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun x y -> Float.equal x y) a b

let run ?policy ?(deadline_ms = 1000) ?plan ?tile ?trace nest ~nprocs =
  let plan =
    match plan with
    | None -> Fault.none
    | Some s -> (
        match Fault.of_string s with
        | Ok p -> p
        | Error e -> Alcotest.failf "bad test plan %S: %s" s e)
  in
  let resilience =
    {
      Resilient.deadline_ms;
      policy =
        Option.value ~default:Resilient.default_config.Resilient.policy policy;
    }
  in
  let a = Driver.analyze ~nprocs nest in
  let config = { Driver.default_exec_config with Driver.trace } in
  Driver.execute_resilient ~config ~resilience ~plan ?tile a

(* ------------------------------------------------------------------ *)
(* Fault plans                                                         *)
(* ------------------------------------------------------------------ *)

let test_plan_roundtrip () =
  match Fault.of_string "crash@d1s2;stall:250;corrupt@d2c1" with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok p ->
      Alcotest.(check string)
        "normalized round trip" "crash@d1s2c0;stall:250@s1c0;corrupt@d2s1c1"
        (Fault.to_string p);
      checki "three injections" 3 (List.length (Fault.injections p))

let test_plan_rejects_garbage () =
  let bad s =
    match Fault.of_string s with Ok _ -> false | Error _ -> true
  in
  checkb "unknown action" true (bad "explode");
  checkb "bad stall" true (bad "stall:soon");
  checkb "bad site key" true (bad "crash@x3");
  checkb "step 0" true (bad "crash@d0s0")

let test_plan_fires_once () =
  match Fault.of_string "crash@d1s1c0" with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok p ->
      checkb "miss on wrong site" true
        (Fault.fire p ~domain:0 ~step:1 ~claim:0 = None);
      checkb "hit" true
        (Fault.fire p ~domain:1 ~step:1 ~claim:0 = Some (0, Fault.Crash));
      checkb "consumed" true (Fault.fire p ~domain:1 ~step:1 ~claim:0 = None);
      Fault.reset p;
      checkb "re-armed" true
        (Fault.fire p ~domain:1 ~step:1 ~claim:0 = Some (0, Fault.Crash))

(* ------------------------------------------------------------------ *)
(* Fault-free execution                                                *)
(* ------------------------------------------------------------------ *)

let test_fault_free_matches_sequential () =
  let nest = stencil () in
  let report, buffer = run nest ~nprocs:4 in
  checkb "completed" true report.Report.completed;
  checki "on the full pool" 4 report.Report.final_nprocs;
  checki "single attempt" 1 (List.length report.Report.attempts);
  checkb "no events" true (Report.events report = []);
  checkb "covered exactly once" true report.Report.covered_exactly_once;
  checkb "bit-identical to sequential" true
    (buffers_equal buffer (ground_truth nest))

(* ------------------------------------------------------------------ *)
(* Crash recovery                                                      *)
(* ------------------------------------------------------------------ *)

let test_crash_recovered_by_survivors () =
  let nest = stencil () in
  let report, buffer = run nest ~nprocs:4 ~plan:"crash" in
  checkb "completed" true report.Report.completed;
  checkb "tiles are idempotent" true report.Report.tile_retry;
  (* Tile-level recovery: the crash is absorbed inside the attempt, no
     retry needed. *)
  checki "single attempt" 1 (List.length report.Report.attempts);
  checki "one crash" 1 (Report.crashed_count report);
  checkb "orphaned tile re-executed" true (Report.reexecuted_tiles report >= 1);
  checkb "covered exactly once" true report.Report.covered_exactly_once;
  (match report.Report.attempts with
  | [ a ] ->
      checki "one domain retired" 1 (List.length a.Report.retired_domains)
  | _ -> Alcotest.fail "expected one attempt");
  checkb "bit-identical to sequential" true
    (buffers_equal buffer (ground_truth nest))

let test_corruption_overwritten_by_reexecution () =
  let nest = stencil () in
  let report, buffer = run nest ~nprocs:4 ~plan:"corrupt" in
  checkb "completed" true report.Report.completed;
  checkb "no NaN survived" true
    (Array.for_all (fun x -> not (Float.is_nan x)) buffer);
  checkb "bit-identical to sequential" true
    (buffers_equal buffer (ground_truth nest))

let test_crash_under_degrade () =
  let nest = stencil () in
  let report, buffer =
    run nest ~nprocs:4 ~policy:Resilient.Degrade ~plan:"crash@s2"
  in
  checkb "completed" true report.Report.completed;
  checkb "bit-identical to sequential" true
    (buffers_equal buffer (ground_truth nest))

let test_fail_fast_fails_cleanly () =
  let nest = stencil () in
  let report, _ =
    run nest ~nprocs:4 ~policy:Resilient.Fail_fast ~plan:"crash"
  in
  checkb "not completed" false report.Report.completed;
  checki "exactly one attempt" 1 (List.length report.Report.attempts);
  checki "crash recorded" 1 (Report.crashed_count report);
  match report.Report.attempts with
  | [ { Report.outcome = Report.Failed _; _ } ] -> ()
  | _ -> Alcotest.fail "expected a single failed attempt"

(* ------------------------------------------------------------------ *)
(* Watchdog                                                            *)
(* ------------------------------------------------------------------ *)

let test_stall_timed_out_then_retried () =
  let nest = stencil () in
  let t0 = Runtime.Mclock.now () in
  let report, buffer =
    run nest ~nprocs:4 ~deadline_ms:100
      ~policy:(Resilient.Retry { attempts = 2; backoff_ms = 5 })
      ~plan:"stall:10000"
  in
  let wall = Runtime.Mclock.now () -. t0 in
  checkb "completed on retry" true report.Report.completed;
  checki "two attempts" 2 (List.length report.Report.attempts);
  checki "watchdog fired once" 1 (Report.timed_out_count report);
  (match report.Report.attempts with
  | first :: _ -> (
      match first.Report.outcome with
      | Report.Failed _ -> ()
      | Report.Completed -> Alcotest.fail "stalled attempt must fail")
  | [] -> Alcotest.fail "no attempts");
  (* The injected stall is 10 s; the watchdog plus the abort-polling
     sleeper must cut that short by an order of magnitude. *)
  checkb "watchdog cut the stall short" true (wall < 5.0);
  checkb "bit-identical to sequential" true
    (buffers_equal buffer (ground_truth nest))

(* Plan [crash;stall:2000] under a 100 ms deadline and [Retry]: the
   domain that claims first crashes (entry 0) and a survivor's claim 0
   stalls (entry 1).  However many domains are left, the watchdog on the
   calling domain must time the stall out: attempt 0 fails with exactly
   one Timed_out, the retry completes bit-identically, the job ends long
   before the stall would, and the trace counts both detections and
   holds the verdict's instant. *)
let check_crash_then_stall ?tile ~nprocs () =
  let nest = stencil () in
  let trace = Runtime.Trace.create ~domains:nprocs () in
  let t0 = Runtime.Mclock.now () in
  let report, buffer =
    run nest ~nprocs ~deadline_ms:100 ?tile ~trace
      ~policy:(Resilient.Retry { attempts = 2; backoff_ms = 5 })
      ~plan:"crash;stall:2000"
  in
  let wall = Runtime.Mclock.now () -. t0 in
  checkb "completed" true report.Report.completed;
  checki "two attempts" 2 (List.length report.Report.attempts);
  (match report.Report.attempts with
  | first :: _ ->
      checkb "attempt 0 failed" true
        (match first.Report.outcome with
        | Report.Failed _ -> true
        | Report.Completed -> false);
      checki "attempt 0 timed out once" 1
        (List.length
           (List.filter
              (function Report.Timed_out _ -> true | _ -> false)
              first.Report.events))
  | [] -> Alcotest.fail "no attempts");
  checkb "watchdog cut the 2 s stall short" true (wall < 1.0);
  checkb "bit-identical to sequential" true
    (buffers_equal buffer (ground_truth nest));
  checki "faults detected: crash and timeout" 2
    (Runtime.Trace.summary trace).Runtime.Trace.faults_detected;
  checki "one watchdog instant" 1
    (List.length
       (List.filter
          (fun e -> e.Runtime.Trace.kind = Runtime.Trace.Watchdog)
          (Runtime.Trace.events trace)))

(* One whole-space tile on 3 domains: the survivor that takes the
   orphan stalls while re-executing it. *)
let test_stall_during_orphan_reexecution_timed_out () =
  check_crash_then_stall ~nprocs:3
    ~tile:(Partition.Tile.rect (Loopir.Nest.extents (stencil ())))
    ()

(* 2 domains: the crash leaves a lone survivor, which stalls on its own
   first claim, whichever tile that is; no domain is left at the gate. *)
let test_lone_survivor_stall_timed_out () = check_crash_then_stall ~nprocs:2 ()

let test_deadline_below_one_refused () =
  Alcotest.check_raises "deadline_ms = 0"
    (Invalid_argument "Resilient.execute: deadline_ms < 1") (fun () ->
      ignore (run (stencil ()) ~nprocs:2 ~deadline_ms:0))

(* ------------------------------------------------------------------ *)
(* Non-idempotent nests: attempt-level retry only                      *)
(* ------------------------------------------------------------------ *)

(* Every element is accumulated by exactly one iteration: the nest is
   not idempotent (no tile-level recovery), yet race-free, so its
   parallel buffer is deterministic on any number of cores.
   [diag_accumulate] cannot serve here: its anti-diagonal sums are shared
   by tiles of different domains, a genuine write race once domains run
   truly in parallel. *)
let private_accumulate () =
  let open Loopir.Dsl in
  let i = var 0 and j = var 1 in
  nest ~name:"private_accumulate"
    [ doall "i" 1 16; doall "j" 1 16 ]
    [ accumulate "A" [ i; j ]; read "B" [ i; j ] ]

let test_accumulate_retries_whole_attempt () =
  let nest = private_accumulate () in
  let report, buffer = run nest ~nprocs:4 ~plan:"crash" in
  checkb "accumulating tiles are not idempotent" false report.Report.tile_retry;
  checkb "completed" true report.Report.completed;
  (* No tile-level recovery: the crash failed the first attempt and the
     retry ran on fresh operands with the injection already consumed. *)
  checki "two attempts" 2 (List.length report.Report.attempts);
  checki "no tile re-executions" 0 (Report.reexecuted_tiles report);
  checkb "bit-identical to sequential" true
    (buffers_equal buffer (ground_truth nest))

let test_degrade_to_sequential () =
  let nest = Programs.diag_accumulate ~n:16 () in
  let plan = String.concat ";" (List.init 6 (fun _ -> "crash")) in
  let report, buffer = run nest ~nprocs:4 ~policy:Resilient.Degrade ~plan in
  checkb "completed" true report.Report.completed;
  checki "fell back to sequential" 0 report.Report.final_nprocs;
  checkb "fallback event recorded" true
    (List.exists
       (function Report.Sequential_fallback -> true | _ -> false)
       (Report.events report));
  checkb "degradation steps recorded" true
    (List.exists
       (function Report.Degraded _ -> true | _ -> false)
       (Report.events report));
  checki "4,4,2,2,1,1,seq" 7 (List.length report.Report.attempts);
  checkb "bit-identical to sequential" true
    (buffers_equal buffer (ground_truth nest))

(* A partition with a box outside the iteration space fails every
   attempt as a bad partition before any box runs: the kernels address
   operands unchecked, so running it would write far past the buffer. *)
let test_out_of_space_partition () =
  let nest = Programs.stencil5 ~n:16 () in
  let compiled = Runtime.Exec.compile nest in
  let steps = Runtime.Exec.steps_of_nest nest in
  let partition ~nprocs =
    let a = Driver.analyze ~nprocs nest in
    let p =
      Resilient.tiles_of_schedule (Driver.schedule ~tile:(Driver.best_tile a) a)
    in
    let shift (b : Runtime.Exec.box) =
      Array.mapi
        (fun k (lo, hi) -> if k = 0 then (lo + 4000, hi + 4000) else (lo, hi))
        b
    in
    p.Resilient.tiles.(0) <- Array.map shift p.Resilient.tiles.(0);
    p
  in
  let execute policy =
    Resilient.execute
      ~config:{ Resilient.default_config with Resilient.policy }
      ~compiled ~steps ~partition ~nprocs:1 ()
  in
  let bad_partition (a : Report.attempt) =
    match a.Report.outcome with
    | Report.Failed reason ->
        String.starts_with ~prefix:"bad partition: Invalid_argument" reason
    | Report.Completed -> false
  in
  let report, _ =
    execute (Resilient.Retry { attempts = 2; backoff_ms = 0 })
  in
  checkb "retry: not completed" false report.Report.completed;
  checkb "retry: every attempt a bad partition" true
    (List.for_all bad_partition report.Report.attempts);
  let report, buffer = execute Resilient.Degrade in
  checkb "degrade: completed" true report.Report.completed;
  checki "degrade: on the sequential fallback" 0 report.Report.final_nprocs;
  checkb "degrade: parallel attempts were bad partitions" true
    (List.for_all bad_partition
       (List.filter
          (fun (a : Report.attempt) -> a.Report.nprocs > 0)
          report.Report.attempts));
  checkb "degrade: bit-identical to sequential" true
    (buffers_equal buffer (Runtime.Exec.sequential compiled ~steps))

(* Regression: a wildcard site's claim ordinal is re-dealt every
   attempt, and degrade re-partitions re-reach it with a smaller pool -
   the armed-flag CAS must still make each plan entry fire at most once
   across the whole job, and each Injected event must name a distinct
   plan entry. *)
let test_wildcard_sites_fire_once_across_degrades () =
  let nest = Programs.diag_accumulate ~n:16 () in
  let plan = String.concat ";" (List.init 4 (fun _ -> "crash")) in
  let report, _ = run nest ~nprocs:4 ~policy:Resilient.Degrade ~plan in
  checkb "completed" true report.Report.completed;
  let sites =
    List.filter_map
      (function Report.Injected { site; _ } -> Some site | _ -> None)
      (Report.events report)
  in
  checki "every entry fired (enough attempts to consume the plan)" 4
    (List.length sites);
  checki "no entry fired twice" 4
    (List.length (List.sort_uniq compare sites));
  List.iter
    (fun s -> checkb "site indexes the plan" true (s >= 0 && s < 4))
    sites

(* ------------------------------------------------------------------ *)
(* Re-execution safety                                                 *)
(* ------------------------------------------------------------------ *)

module Exec = Runtime.Exec

let addr (r : Exec.cref) p =
  let a = ref r.Exec.c in
  Array.iteri (fun k m -> a := !a + (m * p.(k))) r.Exec.m;
  !a

(* The reference decision: hash every written address over the whole
   iteration space, then probe every read address. *)
let hashed_reexecution_safe c =
  let writes = Exec.writes c and reads = Exec.reads c in
  Array.for_all (fun (_, accumulate) -> not accumulate) writes
  && (Array.length writes = 0
     ||
     let space = Loopir.Nest.bounds (Exec.nest c) in
     let written = Hashtbl.create 4096 in
     Exec.iter_box space (fun p ->
         Array.iter (fun (r, _) -> Hashtbl.replace written (addr r p) ()) writes);
     let clash = ref false in
     Exec.iter_box space (fun p ->
         Array.iter
           (fun r -> if Hashtbl.mem written (addr r p) then clash := true)
           reads);
     not !clash)

(* Both decisions agree, and every reference's span is the least and
   greatest address it touches. *)
let check_agreement name nest =
  let c = Exec.compile nest in
  let space = Loopir.Nest.bounds nest in
  let exact_span r =
    let lo = ref max_int and hi = ref min_int in
    Exec.iter_box space (fun p ->
        let a = addr r p in
        lo := min !lo a;
        hi := max !hi a);
    (!lo, !hi)
  in
  Array.iter
    (fun r ->
      Alcotest.(check (pair int int))
        (name ^ ": span") (exact_span r) (Exec.span space r))
    (Array.append (Exec.reads c) (Array.map fst (Exec.writes c)));
  checkb (name ^ ": agrees with hashing") (hashed_reexecution_safe c)
    (Exec.reexecution_safe c)

let test_safety_gallery () =
  List.iter (fun (name, nest) -> check_agreement name nest) Programs.all

let test_safety_random () =
  for id = 0 to 299 do
    let case = Proptest.Gen.generate ~seed:14 ~id in
    check_agreement (Printf.sprintf "case %d" id) case.Proptest.Gen.nest
  done

(* A[2i] = A[2i+1]: the spans overlap, so the decision reaches the
   exact fallback, but the parities never meet. *)
let test_safety_interleaved () =
  let nest =
    let open Loopir.Dsl in
    let i = var 0 in
    nest ~name:"interleaved" [ doall "i" 0 15 ]
      [ write "A" [ 2 * i ]; read "A" [ (2 * i) + int 1 ] ]
  in
  let c = Exec.compile nest in
  let space = Loopir.Nest.bounds nest in
  let wlo, whi = Exec.span space (fst (Exec.writes c).(0)) in
  let rlo, rhi = Exec.span space (Exec.reads c).(0) in
  checkb "spans overlap" true (wlo <= rhi && rlo <= whi);
  checkb "safe" true (Exec.reexecution_safe c);
  check_agreement "interleaved" nest

let test_safety_inplace_unsafe () =
  List.iter
    (fun (name, nest) ->
      checkb name false (Exec.reexecution_safe (Exec.compile nest)))
    [
      ("relax_inplace", Programs.relax_inplace ());
      ("example8_inplace", Programs.example8_inplace ());
    ]

(* Disjoint arrays are settled by the spans: no address is enumerated,
   so the decision allocates O(references) words.  Minor words come
   from [Gc.minor_words], which counts the live minor heap exactly;
   major words exclude those promoted from it, which are already
   counted as minor. *)
let test_safety_disjoint_allocates_little () =
  let c = Exec.compile (Programs.stencil5 ~n:512 ()) in
  let direct_major () =
    let _, promoted, major = Gc.counters () in
    major -. promoted
  in
  let major0 = direct_major () in
  let minor0 = Gc.minor_words () in
  let safe = Exec.reexecution_safe c in
  let minor = Gc.minor_words () -. minor0 in
  let words = minor +. direct_major () -. major0 in
  checkb "safe" true safe;
  if words *. float_of_int (Sys.word_size / 8) >= 1024.0 then
    Alcotest.failf "reexecution_safe allocated %.0f words" words

(* ------------------------------------------------------------------ *)
(* Report serialization                                                *)
(* ------------------------------------------------------------------ *)

let test_report_json () =
  let nest = stencil () in
  let report, _ = run nest ~nprocs:4 ~plan:"crash" in
  let json = Report.to_json report in
  let contains needle =
    let n = String.length needle and h = String.length json in
    let rec go i = i + n <= h && (String.sub json i n = needle || go (i + 1)) in
    go 0
  in
  checkb "has completed" true (contains "\"completed\": true");
  checkb "has crash event" true (contains "\"event\": \"crashed\"");
  checkb "has cover bit" true (contains "\"covered_exactly_once\": true");
  checkb "has plan" true (contains "crash@s1c0")

let test_policy_strings () =
  let roundtrip s =
    match Resilient.policy_of_string s with
    | Error e -> Alcotest.failf "policy %S rejected: %s" s e
    | Ok p -> Resilient.policy_to_string p
  in
  Alcotest.(check string) "fail-fast" "fail-fast" (roundtrip "fail-fast");
  Alcotest.(check string) "degrade" "degrade" (roundtrip "degrade");
  Alcotest.(check string) "retry default" "retry:3:25" (roundtrip "retry");
  Alcotest.(check string) "retry full" "retry:5:10" (roundtrip "retry:5:10");
  checkb "garbage rejected" true
    (match Resilient.policy_of_string "panic" with
    | Error _ -> true
    | Ok _ -> false)

let () =
  Alcotest.run "resilient"
    [
      ( "fault plans",
        [
          Alcotest.test_case "round trip" `Quick test_plan_roundtrip;
          Alcotest.test_case "rejects garbage" `Quick test_plan_rejects_garbage;
          Alcotest.test_case "fires once" `Quick test_plan_fires_once;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "fault-free matches sequential" `Quick
            test_fault_free_matches_sequential;
          Alcotest.test_case "crash recovered by survivors" `Quick
            test_crash_recovered_by_survivors;
          Alcotest.test_case "corruption overwritten" `Quick
            test_corruption_overwritten_by_reexecution;
          Alcotest.test_case "crash under degrade" `Quick
            test_crash_under_degrade;
          Alcotest.test_case "fail-fast fails cleanly" `Quick
            test_fail_fast_fails_cleanly;
          Alcotest.test_case "stall timed out then retried" `Quick
            test_stall_timed_out_then_retried;
          Alcotest.test_case "stall during orphan re-execution timed out"
            `Quick test_stall_during_orphan_reexecution_timed_out;
          Alcotest.test_case "lone survivor's stall timed out" `Quick
            test_lone_survivor_stall_timed_out;
          Alcotest.test_case "deadline below 1 ms refused" `Quick
            test_deadline_below_one_refused;
          Alcotest.test_case "accumulate retries whole attempt" `Quick
            test_accumulate_retries_whole_attempt;
          Alcotest.test_case "degrade to sequential" `Quick
            test_degrade_to_sequential;
          Alcotest.test_case "boxes outside the space refused" `Quick
            test_out_of_space_partition;
          Alcotest.test_case "wildcard sites fire once across degrades" `Quick
            test_wildcard_sites_fire_once_across_degrades;
        ] );
      ( "reexecution",
        [
          Alcotest.test_case "agrees with hashing on the gallery" `Quick
            test_safety_gallery;
          Alcotest.test_case "agrees with hashing on random nests" `Quick
            test_safety_random;
          Alcotest.test_case "interleaved writes reach the fallback" `Quick
            test_safety_interleaved;
          Alcotest.test_case "in-place nests stay unsafe" `Quick
            test_safety_inplace_unsafe;
          Alcotest.test_case "disjoint arrays allocate under 1 KB" `Quick
            test_safety_disjoint_allocates_little;
        ] );
      ( "report",
        [
          Alcotest.test_case "json" `Quick test_report_json;
          Alcotest.test_case "policy strings" `Quick test_policy_strings;
        ] );
    ]
