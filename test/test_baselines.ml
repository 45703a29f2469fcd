(* Tests for the two prior-work baselines: Abraham-Hudak rectangular
   partitioning and Ramanujam-Sadayappan communication-free partitions,
   and their agreement with the footprint framework (the paper's
   Examples 2 and 8 claims). *)

open Matrixkit
open Loopir
open Baselines

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Abraham-Hudak                                                       *)
(* ------------------------------------------------------------------ *)

let test_ah_applies () =
  (match Abraham_hudak.applies (Loopart.Programs.example8 ()) with
  | Ok name -> Alcotest.(check string) "target B" "B" name
  | Error e -> Alcotest.failf "should apply: %s" e);
  (match Abraham_hudak.applies (Loopart.Programs.example2 ()) with
  | Ok _ -> Alcotest.fail "example 2 is outside the AH domain"
  | Error _ -> ());
  match Abraham_hudak.applies (Loopart.Programs.example9 ()) with
  | Ok _ -> Alcotest.fail "two shared arrays are outside the AH domain"
  | Error _ -> ()

let test_ah_example8 () =
  match Abraham_hudak.partition (Loopart.Programs.example8 ~n:60 ()) ~nprocs:8 with
  | Error e -> Alcotest.failf "AH failed: %s" e
  | Ok r ->
      Alcotest.(check (array int)) "spreads 2:3:4" [| 2; 3; 4 |] r.Abraham_hudak.spreads;
      check "grid size" 8 (Array.fold_left ( * ) 1 r.Abraham_hudak.grid)

let test_ah_agrees_with_framework () =
  (* The paper's claim (Example 8): AH and the footprint framework choose
     the same partition on AH's domain. *)
  let nest = Loopart.Programs.example8 ~n:60 () in
  let cost = Partition.Cost.of_nest nest in
  let ours = Partition.Rectangular.optimize cost ~nprocs:8 in
  match Abraham_hudak.partition nest ~nprocs:8 with
  | Error e -> Alcotest.failf "AH failed: %s" e
  | Ok ah ->
      Alcotest.(check (array int))
        "identical tile sizes" ours.Partition.Rectangular.sizes
        ah.Abraham_hudak.sizes

let test_ah_zero_spread_dimension () =
  (* Offsets vary only in dimension 0: the other dimension should be kept
     whole. *)
  let open Dsl in
  let i = var 0 and j = var 1 in
  let nest =
    nest ~name:"rows"
      [ doall "i" 1 32; doall "j" 1 32 ]
      [ write "A" [ i; j ]; read "A" [ i - int 1; j ]; read "A" [ i + int 1; j ] ]
  in
  match Abraham_hudak.partition nest ~nprocs:4 with
  | Error e -> Alcotest.failf "AH failed: %s" e
  | Ok r ->
      Alcotest.(check (array int)) "spread only in i" [| 2; 0 |] r.Abraham_hudak.spreads;
      (* Sharing runs along i, so tiles span i and split j. *)
      Alcotest.(check (array int)) "i-spanning slabs" [| 32; 8 |] r.Abraham_hudak.sizes

(* ------------------------------------------------------------------ *)
(* Ramanujam-Sadayappan                                                *)
(* ------------------------------------------------------------------ *)

let test_rs_example2 () =
  let t = Ramanujam_sadayappan.analyze (Loopart.Programs.example2 ()) in
  checkb "communication-free exists" true t.Ramanujam_sadayappan.comm_free;
  (* The sharing direction is (4,0); the normal must be (0, +-1). *)
  (match t.Ramanujam_sadayappan.sharing with
  | [ v ] -> Alcotest.(check (array int)) "sharing (4,0)" [| 4; 0 |] v
  | other ->
      Alcotest.failf "expected one sharing vector, got %d" (List.length other));
  match t.Ramanujam_sadayappan.normals with
  | Some n ->
      check "one normal" 1 (Imat.rows n);
      check "normal j component" 1 (abs (Imat.get n 0 1));
      check "normal i component" 0 (Imat.get n 0 0)
  | None -> Alcotest.fail "normal expected"

let test_rs_slab_matches_optimizer () =
  (* The R-S slab for Example 2 is exactly the partition our optimizer
     picks: columns of j. *)
  let nest = Loopart.Programs.example2 () in
  let t = Ramanujam_sadayappan.analyze nest in
  match Ramanujam_sadayappan.slab_tile t nest ~nprocs:100 with
  | None -> Alcotest.fail "slab expected"
  | Some tile ->
      let cost = Partition.Cost.of_nest nest in
      let ours = Partition.Rectangular.optimize cost ~nprocs:100 in
      checkb "same tile" true
        (Partition.Tile.equal tile ours.Partition.Rectangular.tile)

let test_rs_no_comm_free () =
  (* The in-place 4-neighbour relaxation shares along both axes: no
     hyperplane partition is communication-free. *)
  let t =
    Ramanujam_sadayappan.analyze (Loopart.Programs.relax_inplace ())
  in
  checkb "not communication-free" false t.Ramanujam_sadayappan.comm_free;
  checkb "no normals" true (t.Ramanujam_sadayappan.normals = None)

let test_rs_example8_surprise () =
  (* Example 8's three B offsets differ by vectors that span only a
     2-D subspace ((1,1,-1) and (2,-2,-4)); R-S finds the hyperplane
     normal (-3,1,-2) that makes the loop communication-free - a
     partition the rectangular framework cannot express. *)
  let t = Ramanujam_sadayappan.analyze (Loopart.Programs.example8 ()) in
  checkb "comm-free exists" true t.Ramanujam_sadayappan.comm_free;
  match t.Ramanujam_sadayappan.normals with
  | Some n ->
      check "one normal" 1 (Imat.rows n);
      let h = Imat.row n 0 in
      List.iter
        (fun v ->
          check "normal orthogonal to sharing" 0
            ((h.(0) * v.(0)) + (h.(1) * v.(1)) + (h.(2) * v.(2))))
        t.Ramanujam_sadayappan.sharing
  | None -> Alcotest.fail "normal expected"

let test_rs_no_sharing () =
  let open Dsl in
  let i = var 0 and j = var 1 in
  let nest =
    nest ~name:"private"
      [ doall "i" 1 8; doall "j" 1 8 ]
      [ write "A" [ i; j ]; read "B" [ i; j ] ]
  in
  let t = Ramanujam_sadayappan.analyze nest in
  checkb "trivially communication-free" true t.Ramanujam_sadayappan.comm_free;
  match t.Ramanujam_sadayappan.normals with
  | Some n -> check "identity normals" 2 (Imat.rows n)
  | None -> Alcotest.fail "normals expected"

let test_rs_self_sharing_projection () =
  (* A single reference A[i+j] self-shares along (1,-1). *)
  let nest =
    let open Dsl in
    let i = var 0 and j = var 1 in
    nest ~name:"proj" [ doall "i" 1 8; doall "j" 1 8 ] [ write "A" [ i + j ] ]
  in
  let t = Ramanujam_sadayappan.analyze nest in
  checkb "comm-free along the fibre" true t.Ramanujam_sadayappan.comm_free;
  match t.Ramanujam_sadayappan.normals with
  | Some n ->
      (* Normal must be orthogonal to (1,-1) i.e. proportional to (1,1). *)
      let h = Imat.row n 0 in
      check "h . (1,-1) = 0" 0 ((h.(0) * 1) + (h.(1) * -1))
  | None -> Alcotest.fail "normal expected"

let test_rs_simulator_confirms_comm_free () =
  (* Zero coherence traffic and misses = distinct elements for the R-S
     partition of Example 2. *)
  let nest = Loopart.Programs.example2 () in
  let t = Ramanujam_sadayappan.analyze nest in
  match Ramanujam_sadayappan.slab_tile t nest ~nprocs:100 with
  | None -> Alcotest.fail "slab expected"
  | Some tile ->
      let sched = Partition.Codegen.make nest tile ~nprocs:100 in
      let r = Machine.Sim.run sched Machine.Sim.default in
      check "no coherence misses" 0 r.Machine.Sim.stats.Machine.Stats.coherence_misses;
      check "no invalidations" 0 r.Machine.Sim.stats.Machine.Stats.invalidations;
      check "every miss is a distinct element" r.Machine.Sim.distinct_total
        r.Machine.Sim.stats.Machine.Stats.misses

(* ------------------------------------------------------------------ *)
(* Gallery-wide comparison against the cost model                      *)
(* ------------------------------------------------------------------ *)

let objective_of cost sizes =
  Partition.Cost.eval_objective cost (Array.map float_of_int sizes)

let test_ah_never_beats_optimizer () =
  (* On every gallery nest inside the AH domain, the footprint
     optimizer's tile is at least as good as Abraham-Hudak's under the
     paper's own objective - AH is a special case of the framework
     (Section 4.1), so it can tie but never win. *)
  let tried = ref 0 in
  List.iter
    (fun (name, nest) ->
      match Abraham_hudak.partition nest ~nprocs:8 with
      | Error _ -> ()
      | Ok ah -> (
          let cost = Partition.Cost.of_nest nest in
          match Partition.Rectangular.optimize cost ~nprocs:8 with
          | exception Invalid_argument _ -> ()
          | ours ->
              incr tried;
              let f_ah = objective_of cost ah.Abraham_hudak.sizes in
              let f_ours = objective_of cost ours.Partition.Rectangular.sizes in
              Alcotest.(check bool)
                (Printf.sprintf "%s: optimizer (%.1f) <= AH (%.1f)" name f_ours
                   f_ah)
                true
                (f_ours <= f_ah +. (1e-6 *. (1.0 +. abs_float f_ah)))))
    Loopart.Programs.all;
  checkb "at least one gallery nest in the AH domain" true (!tried >= 1)

let test_rs_comm_free_confirmed_on_gallery () =
  (* Every communication-free R-S slab on the gallery really is free of
     coherence traffic when executed, and the rectangular ones are never
     better than the optimizer's choice under the cost objective. *)
  let simmed = ref 0 in
  List.iter
    (fun (name, nest) ->
      if Loopir.Nest.iterations nest <= 20_000 then
        let t = Ramanujam_sadayappan.analyze nest in
        if t.Ramanujam_sadayappan.comm_free then
          match Ramanujam_sadayappan.slab_tile t nest ~nprocs:4 with
          | None -> ()
          | Some tile ->
              incr simmed;
              let sched = Partition.Codegen.make nest tile ~nprocs:4 in
              let r = Machine.Sim.run sched Machine.Sim.default in
              check
                (Printf.sprintf "%s: slab has no coherence misses" name)
                0 r.Machine.Sim.stats.Machine.Stats.coherence_misses;
              check
                (Printf.sprintf "%s: slab causes no invalidations" name)
                0 r.Machine.Sim.stats.Machine.Stats.invalidations;
              (match tile with
              | Partition.Tile.Rect sizes -> (
                  let cost = Partition.Cost.of_nest nest in
                  match Partition.Rectangular.optimize cost ~nprocs:4 with
                  | exception Invalid_argument _ -> ()
                  | ours ->
                      let f_rs = objective_of cost sizes in
                      let f_ours =
                        objective_of cost ours.Partition.Rectangular.sizes
                      in
                      Alcotest.(check bool)
                        (Printf.sprintf
                           "%s: optimizer (%.1f) <= RS slab (%.1f)" name
                           f_ours f_rs)
                        true
                        (f_ours <= f_rs +. (1e-6 *. (1.0 +. abs_float f_rs))))
              | Partition.Tile.Pped _ -> ()))
    Loopart.Programs.all;
  checkb "at least one comm-free gallery slab simulated" true (!simmed >= 1)

let test_ah_cost_model_sees_the_spread () =
  (* On the single-array stencil, the AH tile's predicted misses grow
     with the offset spread exactly as the cost model says: the sizes AH
     picks minimize the model's objective among its own candidates, so
     predicted misses for the AH tile must match misses_per_tile of the
     equivalent rectangular tile. *)
  let nest = Loopart.Programs.example8 ~n:60 () in
  match Abraham_hudak.partition nest ~nprocs:8 with
  | Error e -> Alcotest.failf "AH failed: %s" e
  | Ok ah ->
      let cost = Partition.Cost.of_nest nest in
      let tile = Partition.Tile.rect ah.Abraham_hudak.sizes in
      let predicted = Partition.Cost.misses_per_tile cost tile in
      checkb "prediction positive" true (predicted > 0);
      let ours = Partition.Rectangular.optimize cost ~nprocs:8 in
      check "identical tile, identical prediction"
        (Partition.Cost.misses_per_tile cost ours.Partition.Rectangular.tile)
        predicted

let () =
  Alcotest.run "baselines"
    [
      ( "abraham-hudak",
        [
          Alcotest.test_case "domain check" `Quick test_ah_applies;
          Alcotest.test_case "example 8 spreads" `Quick test_ah_example8;
          Alcotest.test_case "agrees with framework" `Quick
            test_ah_agrees_with_framework;
          Alcotest.test_case "zero-spread dimension" `Quick
            test_ah_zero_spread_dimension;
        ] );
      ( "ramanujam-sadayappan",
        [
          Alcotest.test_case "example 2 normal" `Quick test_rs_example2;
          Alcotest.test_case "slab = optimizer choice" `Quick
            test_rs_slab_matches_optimizer;
          Alcotest.test_case "no comm-free for relaxation" `Quick
            test_rs_no_comm_free;
          Alcotest.test_case "example 8 comm-free surprise" `Quick
            test_rs_example8_surprise;
          Alcotest.test_case "no sharing at all" `Quick test_rs_no_sharing;
          Alcotest.test_case "self-sharing projection" `Quick
            test_rs_self_sharing_projection;
          Alcotest.test_case "simulator confirms" `Quick
            test_rs_simulator_confirms_comm_free;
        ] );
      ( "gallery vs cost model",
        [
          Alcotest.test_case "AH never beats the optimizer" `Quick
            test_ah_never_beats_optimizer;
          Alcotest.test_case "RS slabs coherence-free and dominated" `Quick
            test_rs_comm_free_confirmed_on_gallery;
          Alcotest.test_case "AH tile prediction consistent" `Quick
            test_ah_cost_model_sees_the_spread;
        ] );
    ]
