(* Tests for the trace recorder: span-stack discipline and nesting
   well-formedness, ring overflow accounting, counter totals against
   the schedule's cover-exactly-once tile counts, the disabled
   recorder's zero-event zero-allocation guarantee, and the < 5%
   overhead budget of tracing a real run. *)

open Loopart
module Trace = Runtime.Trace

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Recording discipline                                                *)
(* ------------------------------------------------------------------ *)

let test_span_nesting () =
  let t = Trace.create ~domains:2 () in
  Trace.begin_span t 0 Trace.Tile ~arg:7;
  Trace.begin_span t 0 Trace.Exec ~arg:7;
  Trace.end_span t 0;
  Trace.end_span t 0;
  checki "stack empty again" 0 (Trace.depth t 0);
  match Trace.events t with
  | [ inner; outer ] ->
      (* The inner span completes (and is recorded) first. *)
      checkb "inner is exec" true (inner.Trace.kind = Trace.Exec);
      checkb "outer is tile" true (outer.Trace.kind = Trace.Tile);
      checki "args preserved" 7 inner.Trace.arg;
      checkb "durations non-negative" true
        (inner.Trace.dur >= 0.0 && outer.Trace.dur >= 0.0);
      (* Well-nested: the child interval lies inside the parent's. *)
      checkb "child starts after parent" true
        (outer.Trace.t0 <= inner.Trace.t0);
      checkb "child ends before parent" true
        (inner.Trace.t0 +. inner.Trace.dur
         <= outer.Trace.t0 +. outer.Trace.dur +. 1e-9)
  | evs -> Alcotest.failf "expected 2 events, got %d" (List.length evs)

let test_unwind_discards_open_spans () =
  let t = Trace.create ~domains:1 () in
  let d0 = Trace.depth t 0 in
  Trace.begin_span t 0 Trace.Tile ~arg:1;
  Trace.begin_span t 0 Trace.Exec ~arg:1;
  checki "two open spans" 2 (Trace.depth t 0);
  Trace.unwind t 0 ~depth:d0;
  checki "stack reset" 0 (Trace.depth t 0);
  checki "nothing recorded" 0 (List.length (Trace.events t));
  (* Recording still works after an unwind. *)
  Trace.begin_span t 0 Trace.Step ~arg:1;
  Trace.end_span t 0;
  checki "recording resumes" 1 (List.length (Trace.events t))

let test_overdeep_nesting_is_safe () =
  let t = Trace.create ~domains:1 () in
  for i = 1 to 64 do
    Trace.begin_span t 0 Trace.Tile ~arg:i
  done;
  checki "depth tracks past the limit" 64 (Trace.depth t 0);
  for _ = 1 to 64 do
    Trace.end_span t 0
  done;
  checki "stack unwound" 0 (Trace.depth t 0);
  (* Spans beyond max_depth are not recorded; the 32 tracked ones are. *)
  checki "tracked spans recorded" 32 (List.length (Trace.events t))

let test_out_of_range_domain_ignored () =
  let t = Trace.create ~domains:1 () in
  Trace.begin_span t 5 Trace.Tile ~arg:0;
  Trace.end_span t 5;
  Trace.incr t (-1) Trace.Tiles_run;
  Trace.instant t 99 Trace.Steal ~arg:0;
  checki "no events" 0 (List.length (Trace.events t));
  checki "no counters" 0 (Trace.counters t 0 Trace.Tiles_run)

let test_ring_overflow_counts_dropped () =
  let t = Trace.create ~capacity:4 ~domains:1 () in
  for i = 0 to 9 do
    Trace.instant t 0 Trace.Steal ~arg:i
  done;
  let s = Trace.summary t in
  checki "held" 4 s.Trace.events;
  checki "dropped" 6 s.Trace.dropped;
  let args = List.map (fun e -> e.Trace.arg) (Trace.events t) in
  Alcotest.(check (list int)) "newest survive" [ 6; 7; 8; 9 ] args

(* ------------------------------------------------------------------ *)
(* Counter totals vs the schedule's tile counts                        *)
(* ------------------------------------------------------------------ *)

(* A traced tiled run must record exactly one claim-to-completion span
   per (tile, step, repeat) and the same number on the Tiles_run
   counter - the trace-side mirror of Validate's cover-exactly-once
   property. *)
let test_counters_match_tile_counts () =
  let nest = Programs.stencil5 ~n:33 ~steps:2 () in
  let nprocs = 4 and repeats = 2 in
  let a = Driver.analyze ~nprocs nest in
  let sched = Driver.schedule a in
  let ntiles = Partition.Codegen.num_tiles sched in
  let steps = Loopir.Nest.steps nest in
  let trace = Trace.create ~domains:nprocs () in
  let config =
    {
      Driver.default_exec_config with
      Driver.repeats;
      trace = Some trace;
    }
  in
  ignore (Driver.execute ~config a);
  let s = Trace.summary trace in
  let expected = ntiles * steps * repeats in
  checki "tiles_run counter covers every (tile, step, repeat)" expected
    s.Trace.tiles_run;
  let tile_spans =
    List.length
      (List.filter
         (fun e -> e.Trace.kind = Trace.Tile)
         (Trace.events trace))
  in
  checki "one tile span per (tile, step, repeat)" expected tile_spans;
  checki "no ring overflow at this scale" 0 s.Trace.dropped;
  (* The instrumented pass feeds the footprint counter. *)
  checkb "elements touched recorded" true (s.Trace.elements_touched > 0)

(* A run whose static tiles share no written element steps without
   barriers: its trace holds no [Barrier] span, and still one [Tile]
   span per (tile, step, repeat).  A run that keeps its barriers - the
   in-place relaxation reads what its neighbours write - holds one
   [Barrier] span per (domain, step, repeat). *)
let test_barrier_spans () =
  let nprocs = 4 and steps = 3 and repeats = 2 in
  List.iter
    (fun (nest, free) ->
      let a = Driver.analyze ~nprocs nest in
      let ntiles = Partition.Codegen.num_tiles (Driver.schedule a) in
      let trace = Trace.create ~domains:nprocs () in
      let config =
        {
          Driver.default_exec_config with
          Driver.repeats;
          steps = Some steps;
          trace = Some trace;
        }
      in
      let r = Driver.execute ~config a in
      let label what = Printf.sprintf "%s: %s" nest.Loopir.Nest.name what in
      checkb (label "barrier-free") free
        (r.Runtime.Measure.barriers = Runtime.Measure.Barrier_free);
      let spans kind =
        List.length
          (List.filter (fun e -> e.Trace.kind = kind) (Trace.events trace))
      in
      checki (label "no ring overflow") 0 (Trace.summary trace).Trace.dropped;
      checki (label "one tile span per (tile, step, repeat)")
        (ntiles * steps * repeats) (spans Trace.Tile);
      checki (label "barrier spans")
        (if free then 0 else nprocs * steps * repeats)
        (spans Trace.Barrier))
    [
      (Programs.stencil5 ~n:33 (), true);
      (Programs.relax_inplace ~n:33 (), false);
    ]

(* The elements-touched counters come from one observed step of the
   static tiles; over a 3-step run they must equal each domain's
   footprint measured over all 3 steps. *)
let test_elements_touched_multistep () =
  let steps = 3 and nprocs = 4 in
  let a = Driver.analyze ~nprocs (Programs.stencil5 ~n:33 ()) in
  let compiled = Runtime.Exec.compile a.Driver.nest in
  let measured =
    Runtime.Pool.with_pool nprocs (fun pool ->
        Runtime.Exec.measure pool compiled
          (Driver.work a Driver.Tiled) ~steps)
  in
  let trace = Trace.create ~domains:nprocs () in
  let config =
    {
      Driver.default_exec_config with
      Driver.repeats = 1;
      steps = Some steps;
      trace = Some trace;
    }
  in
  ignore (Driver.execute ~config a);
  Alcotest.(check (array int))
    "elements touched = all-steps footprints" measured.Runtime.Exec.footprints
    (Array.init nprocs (fun p -> Trace.counters trace p Trace.Elements_touched))

let test_resilient_counters_match_cover () =
  let nest = Programs.stencil5 ~n:17 ~steps:2 () in
  let nprocs = 4 in
  let a = Driver.analyze ~nprocs nest in
  let trace = Trace.create ~domains:nprocs () in
  let config =
    { Driver.default_exec_config with Driver.trace = Some trace }
  in
  let report, _ = Driver.execute_resilient ~config a in
  checkb "completed" true report.Runtime.Report.completed;
  checkb "covered exactly once" true
    report.Runtime.Report.covered_exactly_once;
  let tiles_total =
    match report.Runtime.Report.attempts with
    | [ att ] -> att.Runtime.Report.tiles_total
    | atts -> Alcotest.failf "expected 1 attempt, got %d" (List.length atts)
  in
  let s = Trace.summary trace in
  checki "tiles_run == tiles x steps (the cover-exactly-once count)"
    (tiles_total * report.Runtime.Report.steps)
    s.Trace.tiles_run;
  (match report.Runtime.Report.metrics with
  | Some m -> checki "report embeds the same summary" s.Trace.tiles_run
                m.Trace.tiles_run
  | None -> Alcotest.fail "traced resilient report has no metrics");
  checki "no faults in a fault-free run" 0 s.Trace.faults_injected

(* ------------------------------------------------------------------ *)
(* Disabled recorder: zero events, zero allocation                     *)
(* ------------------------------------------------------------------ *)

let test_disabled_records_nothing () =
  let t = Trace.disabled in
  checkb "disabled" false (Trace.enabled t);
  Trace.begin_span t 0 Trace.Tile ~arg:0;
  Trace.end_span t 0;
  Trace.instant t 0 Trace.Steal ~arg:0;
  Trace.incr t 0 Trace.Tiles_run;
  checki "no events" 0 (List.length (Trace.events t));
  checki "no counters" 0 (Trace.counters t 0 Trace.Tiles_run);
  let s = Trace.summary t in
  checki "empty summary" 0 s.Trace.events;
  checki "zero domains" 0 s.Trace.domains

let test_disabled_claim_path_allocates_nothing () =
  let t = Trace.disabled in
  (* One warm call so any one-time setup is paid before measuring. *)
  Trace.begin_span t 0 Trace.Tile ~arg:0;
  Trace.end_span t 0;
  let w0 = Gc.minor_words () in
  for i = 0 to 99_999 do
    Trace.begin_span t 0 Trace.Tile ~arg:i;
    Trace.begin_span t 0 Trace.Exec ~arg:i;
    Trace.end_span t 0;
    Trace.incr t 0 Trace.Tiles_run;
    Trace.end_span t 0
  done;
  let delta = Gc.minor_words () -. w0 in
  (* The boxed float returned by Gc.minor_words itself accounts for a
     few words; 100k traced claims would account for hundreds of
     thousands. *)
  checkb "claim-path probes allocate nothing" true (delta < 64.0)

(* ------------------------------------------------------------------ *)
(* Overhead budget                                                     *)
(* ------------------------------------------------------------------ *)

(* Tracing must stay under 5% of wall-clock on the E22 scale-1 stencil
   workload.  Samples are interleaved (untraced, traced, untraced, ...)
   so scheduler drift hits both sides equally, compared by per-side
   medians with an absolute slack floor so machine noise on millisecond
   runs cannot fail the relative bound. *)
let test_overhead_budget () =
  let nest = Programs.stencil5 ~n:128 ~steps:2 () in
  let nprocs = 2 and reps = 7 in
  let a = Driver.analyze ~nprocs nest in
  let compiled = Runtime.Exec.compile nest in
  let plan = Runtime.Kernel.plan compiled in
  let boxes = Driver.work a Driver.Tiled in
  let steps = Loopir.Nest.steps nest in
  Runtime.Pool.with_pool nprocs (fun pool ->
      let once trace () =
        let w, _, _ =
          Runtime.Kernel.time ~trace pool plan ~boxes ~steps ~repeats:1
        in
        w
      in
      let trace = Trace.create ~domains:nprocs () in
      let plain = once Trace.disabled and traced = once trace in
      ignore (plain ());
      ignore (traced ());
      let ps = Array.make reps 0.0 and ts = Array.make reps 0.0 in
      for i = 0 to reps - 1 do
        ps.(i) <- plain ();
        ts.(i) <- traced ()
      done;
      let med a =
        let a = Array.copy a in
        Array.sort compare a;
        a.(reps / 2)
      in
      let p = med ps and t = med ts in
      if not (t <= (p *. 1.05) +. 0.002) then
        Alcotest.failf
          "tracing overhead out of budget: untraced %.3f ms, traced %.3f ms \
           (budget 5%% + 2 ms slack)"
          (1e3 *. p) (1e3 *. t))

(* ------------------------------------------------------------------ *)
(* Chrome export                                                       *)
(* ------------------------------------------------------------------ *)

let test_chrome_export_shape () =
  let t = Trace.create ~domains:2 () in
  Trace.begin_span t 0 Trace.Tile ~arg:3;
  Trace.end_span t 0;
  Trace.instant t 1 Trace.Steal ~arg:3;
  let json = Trace.to_chrome_json t in
  let count_substring hay needle =
    let n = String.length needle and h = String.length hay in
    let c = ref 0 in
    for i = 0 to h - n do
      if String.sub hay i n = needle then incr c
    done;
    !c
  in
  checki "one complete event per span" 2
    (count_substring json "\"ph\": \"X\"");
  checki "tile event present" 1 (count_substring json "\"name\": \"tile\"");
  checki "steal on domain 1" 1 (count_substring json "\"tid\": 1");
  checkb "traceEvents container" true
    (count_substring json "\"traceEvents\"" = 1)

let () =
  Alcotest.run "trace"
    [
      ( "recording",
        [
          Alcotest.test_case "spans nest well-formed" `Quick test_span_nesting;
          Alcotest.test_case "unwind discards open spans" `Quick
            test_unwind_discards_open_spans;
          Alcotest.test_case "over-deep nesting is safe" `Quick
            test_overdeep_nesting_is_safe;
          Alcotest.test_case "out-of-range domains ignored" `Quick
            test_out_of_range_domain_ignored;
          Alcotest.test_case "ring overflow counts dropped" `Quick
            test_ring_overflow_counts_dropped;
        ] );
      ( "counters",
        [
          Alcotest.test_case "totals match (tile, step, repeat) counts" `Quick
            test_counters_match_tile_counts;
          Alcotest.test_case "elements touched over 3 steps" `Quick
            test_elements_touched_multistep;
          Alcotest.test_case "barrier spans only where data crosses" `Quick
            test_barrier_spans;
          Alcotest.test_case "resilient totals match cover-exactly-once"
            `Quick test_resilient_counters_match_cover;
        ] );
      ( "disabled",
        [
          Alcotest.test_case "records nothing" `Quick
            test_disabled_records_nothing;
          Alcotest.test_case "claim path allocates nothing" `Quick
            test_disabled_claim_path_allocates_nothing;
        ] );
      ( "overhead",
        [ Alcotest.test_case "< 5% on E22 scale-1" `Slow test_overhead_budget ] );
      ( "export",
        [ Alcotest.test_case "chrome trace shape" `Quick test_chrome_export_shape ] );
    ]
