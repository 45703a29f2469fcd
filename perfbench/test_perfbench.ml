(* Tests for the benchmark's own checker, on the small-size workloads:
   the correct reference passes every sample, a deliberately wrong one
   fails every sample, on both the untraced and the traced run. *)

open Perfbench

let checki = Alcotest.(check int)

(* The sequential reference with one element off by one. *)
let wrong (r : Workload.reference) =
  let buffer = Array.copy r.buffer in
  buffer.(0) <- buffer.(0) +. 1.0;
  Workload.reference_of_buffer buffer

let tally_of run ?reference w =
  (run ?reference ~seconds:0.0 ~min_rounds:1 w : Sampler.outcome).tally

let test_checker run (w : Workload.t) () =
  let r = Workload.reference w in
  let ok = tally_of run ~reference:r w in
  checki "correct reference: no failure" 0 ok.failed;
  let bad = tally_of run ~reference:(wrong r) w in
  checki "wrong reference: every sample fails" bad.attempted bad.failed;
  checki "samples attempted" ok.attempted bad.attempted

let test_traced_metrics () =
  let w = Option.get (Workload.find ~small:true "stencil5-crash") in
  let o = Sampler.traced ~seconds:0.0 ~min_rounds:1 w in
  checki "failures" 0 o.tally.failed;
  checki "every per-layer metric reported" (List.length Layers.metrics)
    (List.length o.metrics);
  let value name =
    Stats.median (List.find (fun (m : Sampler.metric) -> m.name = name) o.metrics).samples
  in
  checki "one crash recovered by re-execution" 1
    (int_of_float (value "resilient.reexecuted_tiles"))

(* Python's statistics.quantiles(range(1, 11), n=4) is [2.75, 5.5, 8.25]. *)
let test_quartiles () =
  let q1, m, q3 = Stats.quartiles (List.init 10 (fun i -> float_of_int (10 - i))) in
  Alcotest.(check (list (float 1e-12))) "quartiles" [ 2.75; 5.5; 8.25 ] [ q1; m; q3 ]

let () =
  let cases run =
    List.map
      (fun (w : Workload.t) -> Alcotest.test_case w.name `Quick (test_checker run w))
      (Workload.all ~small:true)
  in
  Alcotest.run "perfbench"
    [
      ("untraced checker", cases Sampler.untraced);
      ("traced checker", cases Sampler.traced);
      ( "breakdown",
        [
          Alcotest.test_case "traced metrics" `Quick test_traced_metrics;
          Alcotest.test_case "quartiles" `Quick test_quartiles;
        ] );
    ]
