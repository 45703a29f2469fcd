(* End-to-end integration tests: the full pipeline on every program of
   the gallery, plus the paper-agreement checks that tie analysis,
   optimizer, baselines and simulator together. *)

open Loopir
open Partition
open Machine
open Loopart

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let test_gallery_analyzes () =
  (* Every gallery program must flow through the whole pipeline. *)
  List.iter
    (fun (name, nest) ->
      let nprocs = 4 in
      let a = Driver.analyze ~nprocs nest in
      checkb
        (Printf.sprintf "%s: grid covers procs" name)
        true
        (Array.fold_left ( * ) 1 a.Driver.rect.Rectangular.grid = nprocs);
      checkb
        (Printf.sprintf "%s: report renders" name)
        true
        (String.length (Format.asprintf "%a" Driver.report a) > 0))
    Programs.all

let test_example2_end_to_end () =
  let a = Driver.analyze ~nprocs:100 (Programs.example2 ()) in
  (* The compiler picks the communication-free column partition... *)
  Alcotest.(check (array int))
    "columns" [| 100; 1 |] a.Driver.rect.Rectangular.sizes;
  (* ...RS confirms it is communication-free... *)
  checkb "rs agrees" true a.Driver.rs.Baselines.Ramanujam_sadayappan.comm_free;
  (* ...and the simulator measures exactly the predicted misses. *)
  let r = Driver.simulate a in
  Array.iter
    (fun f -> check "footprint = prediction"
        a.Driver.rect.Rectangular.predicted_misses_per_tile f)
    (Sim.footprints r);
  check "zero coherence" 0 r.Sim.stats.Stats.coherence_misses

let test_prediction_accuracy_across_gallery () =
  (* Theorem 4's estimate must stay within 35% of the measured footprint
     for interior tiles of every gallery program (boundary truncation
     makes measurements smaller, never larger). *)
  List.iter
    (fun (name, nest) ->
      match Nest.nesting nest with
      | 2 | 3 ->
          let nprocs = 4 in
          let a = Driver.analyze ~nprocs nest in
          let r = Driver.simulate ~config:{ Sim.default with Sim.seq_steps = Some 1 } a in
          let measured = Array.fold_left max 0 (Sim.footprints r) in
          let predicted = a.Driver.rect.Rectangular.predicted_misses_per_tile in
          checkb
            (Printf.sprintf "%s: prediction %d vs measured %d" name predicted
               measured)
            true
            (* Theorem 4 linearizes: it drops the positive cross terms
               (undershoots dense stencils like the 27-point one by the
               u_i*u_j corners) and ignores iteration-space boundary
               truncation (overshoots at corner tiles). *)
            (float_of_int measured <= 1.10 *. float_of_int predicted
            && float_of_int predicted <= 1.6 *. float_of_int measured)
      | _ -> ())
    Programs.all

let test_matmul_blocks_beat_rows () =
  (* The introduction's motivating claim: square blocks reuse more than
     rows/columns in matrix multiply. *)
  let nest = Programs.matmul ~n:16 () in
  let cost = Cost.of_nest nest in
  let blocks = Cost.misses_per_tile cost (Tile.rect [| 4; 4; 16 |]) in
  let rows = Cost.misses_per_tile cost (Tile.rect [| 1; 16; 16 |]) in
  checkb "blocks beat rows analytically" true (blocks < rows);
  let sim tile =
    let sched = Codegen.make nest tile ~nprocs:16 in
    (Sim.run sched Sim.default).Sim.stats.Stats.misses
  in
  checkb "blocks beat rows in simulation" true
    (sim (Tile.rect [| 4; 4; 16 |]) < sim (Tile.rect [| 1; 16; 16 |]))

let test_best_tile_prefers_improving_skew () =
  let a = Driver.analyze ~try_skewed:true ~nprocs:10 (Programs.example3 ()) in
  match a.Driver.skewed with
  | None -> Alcotest.fail "skewed engine applies to example 3"
  | Some s ->
      checkb "skew improves" true s.Skewed.improves_on_rect;
      checkb "best tile is the skewed one" true
        (Tile.equal (Driver.best_tile a) s.Skewed.tile)

let test_driver_parse_roundtrip () =
  (* Surface syntax -> full pipeline. *)
  let src =
    "doall i = 1 to 40\ndoall j = 1 to 40\nA[i,j] = B[i-1,j] + B[i+1,j]\n"
  in
  let nest = Parse.nest_of_string ~name:"parsed" src in
  let a = Driver.analyze ~nprocs:4 nest in
  (* Sharing runs along i (offsets +-1 in i): each processor takes all of
     i and a band of j, so the shared strips stay inside one tile. *)
  Alcotest.(check (array int)) "i-spanning slabs" [| 40; 10 |]
    a.Driver.rect.Rectangular.sizes

let test_simulate_aligned_runs () =
  let a = Driver.analyze ~nprocs:9 (Programs.relax_inplace ~n:19 ~steps:2 ()) in
  let r = Driver.simulate_aligned a in
  checkb "local fills on mesh" true (r.Sim.stats.Stats.local_fills > 0)

(* ------------------------------------------------------------------ *)
(* Executing parallelepiped schedules                                  *)
(* ------------------------------------------------------------------ *)

(* Paper Example 3 on two domains: the skewed engine's parallelepiped
   beats every rectangle. *)
let pped_analysis () =
  let a =
    Driver.analyze ~try_skewed:true ~nprocs:2 (Programs.example3 ~n:24 ())
  in
  let tile = Driver.best_tile a in
  (match tile with
  | Tile.Pped _ -> ()
  | Tile.Rect _ -> Alcotest.fail "example 3 must pick a parallelepiped");
  (a, tile)

let sequential a =
  Runtime.Exec.sequential (Runtime.Exec.compile a.Driver.nest) ~steps:1

let test_execute_pped () =
  let a, tile = pped_analysis () in
  let want = Array.fold_left ( +. ) 0.0 (sequential a) in
  let sched = Driver.schedule ~tile a in
  let mn, mx, _ = Codegen.load_balance sched in
  let ntiles = Codegen.num_tiles sched in
  List.iter
    (fun (policy, traced) ->
      let trace =
        if traced then Some (Runtime.Trace.create ~domains:2 ()) else None
      in
      let config =
        {
          Driver.default_exec_config with
          policy;
          trace;
          repeats = 1;
          steps = Some 1;
        }
      in
      let r = Driver.execute ~config ~tile a in
      let label =
        Printf.sprintf "%s, trace %b" r.Runtime.Measure.policy traced
      in
      checkb (label ^ ": checksum = sequential") true
        (Float.equal want r.Runtime.Measure.checksum);
      let iters =
        Array.map
          (fun (d : Runtime.Measure.domain_stat) -> d.iterations)
          r.Runtime.Measure.per_domain
      in
      check (label ^ ": every iteration once") (Nest.iterations a.Driver.nest)
        (Array.fold_left ( + ) 0 iters);
      if policy = Driver.Tiled then begin
        check (label ^ ": min = load_balance") mn
          (Array.fold_left min max_int iters);
        check (label ^ ": max = load_balance") mx
          (Array.fold_left max 0 iters);
        Option.iter
          (fun t ->
            check (label ^ ": one span per tile") ntiles
              (Runtime.Trace.summary t).Runtime.Trace.tiles_run)
          trace
      end)
    (List.concat_map
       (fun policy -> [ (policy, false); (policy, true) ])
       [ Driver.Tiled; Driver.Work_steal 3; Driver.Cyclic ])

let test_resilient_pped_crash () =
  let a, tile = pped_analysis () in
  let plan = Result.get_ok (Runtime.Fault.of_string "crash") in
  let report, buffer = Driver.execute_resilient ~plan ~tile a in
  checkb "completed" true report.Runtime.Report.completed;
  checkb "tiles recoverable" true report.Runtime.Report.tile_retry;
  checkb "covered exactly once" true report.Runtime.Report.covered_exactly_once;
  check "one crash injected" 1 (Runtime.Report.injected_count report);
  checkb "buffer = sequential" true
    (Array.for_all2 Float.equal (sequential a) buffer)

(* ------------------------------------------------------------------ *)
(* Multi-step execution                                                *)
(* ------------------------------------------------------------------ *)

(* Three Doseq steps of stencil5 under every policy.  The checksum
   comes from the kernels' timed pass and the footprints from one
   observed step of static work, so both must match the all-steps
   references.  Stencil5 writes only A and reads only B, so every order
   gives the sequential buffer.  Under the policies that deal work at
   run time, per-domain footprints vary from run to run; only the union
   is fixed. *)
let test_execute_multistep () =
  let steps = 3 in
  let a = Driver.analyze ~nprocs:4 (Programs.stencil5 ~n:33 ()) in
  let compiled = Runtime.Exec.compile a.Driver.nest in
  let want = Runtime.Exec.checksum (Runtime.Exec.sequential compiled ~steps) in
  let measured =
    Runtime.Pool.with_pool a.Driver.nprocs (fun pool ->
        Runtime.Exec.measure pool compiled
          (Driver.work a Driver.Tiled)
          ~steps)
  in
  List.iter
    (fun policy ->
      let config =
        {
          Driver.default_exec_config with
          policy;
          repeats = 2;
          steps = Some steps;
        }
      in
      let r = Driver.execute ~config a in
      let label = r.Runtime.Measure.policy in
      check (label ^ ": steps") steps r.Runtime.Measure.steps;
      checkb (label ^ ": checksum = sequential") true
        (Float.equal want r.Runtime.Measure.checksum);
      check (label ^ ": distinct total") measured.Runtime.Exec.distinct_total
        r.Runtime.Measure.distinct_total;
      check (label ^ ": every iteration once per step")
        (steps * Nest.iterations a.Driver.nest)
        (Array.fold_left
           (fun n (d : Runtime.Measure.domain_stat) -> n + d.iterations)
           0 r.Runtime.Measure.per_domain);
      if policy = Driver.Tiled then
        Alcotest.(check (array int))
          (label ^ ": footprints = all-steps measure")
          measured.Runtime.Exec.footprints
          (Array.map
             (fun (d : Runtime.Measure.domain_stat) -> d.footprint)
             r.Runtime.Measure.per_domain))
    [
      Driver.Tiled;
      Driver.Cyclic;
      Driver.Block_cyclic 7;
      Driver.Guided;
      Driver.Work_steal 16;
    ]

(* ------------------------------------------------------------------ *)
(* Step barriers                                                       *)
(* ------------------------------------------------------------------ *)

let run_barriers ?tile ~policy a =
  let config =
    { Driver.default_exec_config with policy; repeats = 1; steps = Some 2 }
  in
  let r = Driver.execute ~config ?tile a in
  (r.Runtime.Measure.barriers = Runtime.Measure.Barrier_free, r)

(* Under the compile-time tiles, the nests whose tiles read one array
   and write another run their steps with no barrier, and so does
   example3's parallelepiped; the in-place nests, whose tiles read what
   a neighbour writes, and diag_accumulate, whose tiles accumulate into
   shared elements, keep theirs.  Every nest run barrier-free reports
   no flow-in. *)
let test_barrier_decision () =
  let gallery name = Option.get (Programs.find name) in
  let expect ?tile ~free name a =
    let got, r = run_barriers ?tile ~policy:Driver.Tiled a in
    let label = Printf.sprintf "%s on %d domains" name a.Driver.nprocs in
    checkb (label ^ ": barrier-free") free got;
    if free then
      Array.iter
        (fun (d : Runtime.Measure.domain_stat) ->
          check (label ^ ": no flow-in") 0 d.Runtime.Measure.flow_in)
        r.Runtime.Measure.per_domain
  in
  List.iter
    (fun (name, free) ->
      List.iter
        (fun nprocs ->
          expect ~free name (Driver.analyze ~nprocs (gallery name)))
        [ 2; 4 ])
    [
      ("stencil5", true);
      ("example3", true);
      ("example6", true);
      ("example8", true);
      ("conv3x3", true);
      ("stencil27", true);
      ("relax_inplace", false);
      ("example8_inplace", false);
      ("diag_accumulate", false);
    ];
  let a, tile = pped_analysis () in
  expect ~tile ~free:true "example3 skewed" a

(* The decision is Validate's, over the same tiles: a run skips its
   barriers exactly when the validator finds the nest deterministic
   (no race, no contended accumulate, no cross read), and the verdict
   on the run's own operands is OK. *)
let test_barriers_follow_validate () =
  List.iter
    (fun (name, nest) ->
      List.iter
        (fun nprocs ->
          let a = Driver.analyze ~nprocs nest in
          let free, r = run_barriers ~policy:Driver.Tiled a in
          let v =
            Driver.validate a ~steps:r.Runtime.Measure.steps
              ~operands:r.Runtime.Measure.operands
          in
          let label = Printf.sprintf "%s on %d domains" name nprocs in
          checkb label v.Runtime.Validate.deterministic free;
          checkb (label ^ ": the run's verdict") true (Runtime.Validate.ok v))
        [ 2; 3 ])
    Programs.all

(* Work dealt at run time can move between domains from step to step,
   so every policy but the static tiles keeps a barrier every step, on
   every gallery nest. *)
let test_dynamic_keeps_barriers () =
  List.iter
    (fun (name, nest) ->
      let a = Driver.analyze ~nprocs:2 nest in
      List.iter
        (fun policy ->
          let free, r = run_barriers ~policy a in
          checkb
            (Printf.sprintf "%s, %s: barriers kept" name
               r.Runtime.Measure.policy)
            false free)
        [
          Driver.Cyclic;
          Driver.Block_cyclic 8;
          Driver.Guided;
          Driver.Work_steal 4;
          Driver.Work_steal 64;
        ])
    Programs.all

(* ------------------------------------------------------------------ *)
(* Random-nest integration properties                                  *)
(* ------------------------------------------------------------------ *)

(* Random small doubly-nested programs: a write to one array and 1-3
   reads from another, with random small-G affine subscripts. *)
let gen_nest =
  QCheck2.Gen.(
    let gen_g =
      oneofl
        [
          [ [ 1; 0 ]; [ 0; 1 ] ];
          [ [ 1; 1 ]; [ 1; -1 ] ];
          [ [ 1; 0 ]; [ 1; 1 ] ];
          [ [ 2; 0 ]; [ 0; 1 ] ];
          [ [ 1; 1 ]; [ 0; 1 ] ];
        ]
    in
    let gen_read =
      map2
        (fun g (o1, o2) ->
          Reference.read "B" (Affine.of_rows g [ o1; o2 ]))
        gen_g
        (pair (int_range (-2) 2) (int_range (-2) 2))
    in
    map2
      (fun n reads ->
        let write =
          Reference.write "A" (Affine.of_rows [ [ 1; 0 ]; [ 0; 1 ] ] [ 0; 0 ])
        in
        Nest.make ~name:"random"
          [ Nest.loop "i" 1 n; Nest.loop "j" 1 n ]
          (write :: reads))
      (int_range 8 16)
      (list_size (int_range 1 3) gen_read))

let prop_cold_misses_equal_footprints =
  QCheck2.Test.make ~name:"cold misses = sum of per-proc footprints"
    ~count:60 gen_nest (fun nest ->
      let a = Driver.analyze ~nprocs:4 nest in
      let r = Driver.simulate a in
      r.Sim.stats.Stats.cold_misses
      = Array.fold_left ( + ) 0 (Sim.footprints r))

let prop_prediction_upper_bounds_measurement =
  QCheck2.Test.make
    ~name:"Theorem 4 prediction bounds the busiest processor" ~count:60
    gen_nest (fun nest ->
      let a = Driver.analyze ~nprocs:4 nest in
      let r = Driver.simulate a in
      let measured = Array.fold_left max 0 (Sim.footprints r) in
      let predicted = a.Driver.rect.Rectangular.predicted_misses_per_tile in
      (* Boundary truncation only shrinks footprints; Theorem 4 only
         drops positive cross terms bounded by the spreads. *)
      measured <= predicted + 32)

let prop_schedule_covers_space =
  QCheck2.Test.make ~name:"schedule covers every iteration exactly once"
    ~count:60 gen_nest (fun nest ->
      let a = Driver.analyze ~nprocs:4 nest in
      Scheduling.total (Driver.work a Driver.Tiled)
      = Nest.iterations nest)

let random_props =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_cold_misses_equal_footprints;
      prop_prediction_upper_bounds_measurement;
      prop_schedule_covers_space;
    ]

let () =
  Alcotest.run "driver"
    [
      ( "integration",
        [
          Alcotest.test_case "gallery analyzes" `Quick test_gallery_analyzes;
          Alcotest.test_case "example 2 end-to-end" `Quick
            test_example2_end_to_end;
          Alcotest.test_case "prediction accuracy" `Quick
            test_prediction_accuracy_across_gallery;
          Alcotest.test_case "matmul blocks vs rows" `Quick
            test_matmul_blocks_beat_rows;
          Alcotest.test_case "best tile with skew" `Quick
            test_best_tile_prefers_improving_skew;
          Alcotest.test_case "parse -> pipeline" `Quick
            test_driver_parse_roundtrip;
          Alcotest.test_case "aligned simulation" `Quick
            test_simulate_aligned_runs;
        ] );
      ( "pped execute",
        [
          Alcotest.test_case "policies, kernels, trace" `Quick
            test_execute_pped;
          Alcotest.test_case "resilient crash recovery" `Quick
            test_resilient_pped_crash;
        ] );
      ( "multi-step",
        [
          Alcotest.test_case "policies and kernels over 3 steps" `Quick
            test_execute_multistep;
        ] );
      ( "barriers",
        [
          Alcotest.test_case "which nests run barrier-free" `Quick
            test_barrier_decision;
          Alcotest.test_case "barrier-free iff validated deterministic" `Quick
            test_barriers_follow_validate;
          Alcotest.test_case "dynamic policies keep barriers" `Quick
            test_dynamic_keeps_barriers;
        ] );
      ("random nests", random_props);
    ]
