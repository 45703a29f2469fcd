(* Tests for the kernel-lowering layer: stride precomputation against
   Exec.address on the whole gallery, traversal-order safety, shape
   selection, degenerate boxes, and bit-identical agreement with the
   interpreter on the whole gallery, sequentially and on a domain
   pool. *)

open Loopir
open Partition
open Loopart

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)

let steps_of nest = Runtime.Exec.steps_of_nest nest

(* All permutations of [0 .. n-1]. *)
let rec permutations = function
  | [] -> [ [] ]
  | l ->
      List.concat_map
        (fun x ->
          List.map
            (fun p -> x :: p)
            (permutations (List.filter (fun y -> y <> x) l)))
        l

let axis_permutations n =
  List.map Array.of_list (permutations (List.init n Fun.id))

(* ------------------------------------------------------------------ *)
(* Stride precomputation                                               *)
(* ------------------------------------------------------------------ *)

(* The plan's per-axis deltas must equal the address difference of one
   step along that axis, for every reference of every gallery nest -
   checked at the space's lower corner and at an interior point, which
   together pin the affine address map. *)
let test_strides_match_address () =
  List.iter
    (fun (name, nest) ->
      let compiled = Runtime.Exec.compile nest in
      let plan = Runtime.Kernel.plan compiled in
      let bounds = Nest.bounds nest in
      let corner = Array.map fst bounds in
      let mid =
        Array.map (fun (lo, hi) -> lo + ((hi - lo) / 2)) bounds
      in
      List.iter
        (fun ((r : Reference.t), m) ->
          let addr = Runtime.Exec.address compiled r in
          check
            (Printf.sprintf "%s/%s: delta arity" name r.Reference.array_name)
            (Nest.nesting nest) (Array.length m);
          Array.iteri
            (fun k (lo, hi) ->
              if hi > lo then
                List.iter
                  (fun base ->
                    let at = Array.copy base in
                    at.(k) <- lo;
                    let stepped = Array.copy base in
                    stepped.(k) <- lo + 1;
                    check
                      (Printf.sprintf "%s/%s axis %d" name
                         r.Reference.array_name k)
                      m.(k)
                      (addr stepped - addr at))
                  [ corner; mid ])
            bounds)
        (Runtime.Kernel.strides plan))
    Programs.all

(* The interpreter's touched set over some boxes: every reference's
   address at every point, the set [Exec.measure] records. *)
let interpreted_set compiled boxes =
  let set =
    Runtime.Measure.touched ~universe:(Runtime.Exec.total_elements compiled)
  in
  let addrs =
    List.map (Runtime.Exec.address compiled) (Runtime.Exec.nest compiled).Nest.body
  in
  List.iter
    (fun b ->
      Runtime.Exec.iter_box b (fun p ->
          List.iter (fun addr -> Runtime.Measure.touch set (addr p)) addrs))
    boxes;
  set

let observed_set plan compiled boxes =
  let set =
    Runtime.Measure.touched ~universe:(Runtime.Exec.total_elements compiled)
  in
  List.iter (Runtime.Kernel.observe plan set) boxes;
  set

(* Two sets are equal iff each has as many elements as their union. *)
let same_set label a b =
  let n = Runtime.Measure.touched_count a in
  check (label ^ ": count") (Runtime.Measure.touched_count b) n;
  check (label ^ ": union") n (Runtime.Measure.union_count [| a; b |])

(* ------------------------------------------------------------------ *)
(* Traversal order                                                     *)
(* ------------------------------------------------------------------ *)

(* For nests the analysis proves reorderable, every axis permutation
   must reproduce the interpreter's buffer bit for bit - including
   matmul, whose accumulate chains run along the (single) k fiber - and
   observe the interpreter's touched set. *)
let test_permutations_preserve_results () =
  List.iter
    (fun nest ->
      let name = nest.Nest.name in
      let compiled = Runtime.Exec.compile nest in
      let steps = steps_of nest in
      let reference = Runtime.Exec.sequential compiled ~steps in
      checkb
        (Printf.sprintf "%s is reorderable" name)
        true
        (Runtime.Kernel.reorderable (Runtime.Kernel.plan compiled));
      let whole = [ Nest.bounds nest ] in
      let touched = interpreted_set compiled whole in
      List.iter
        (fun order ->
          let plan = Runtime.Kernel.plan ~order compiled in
          let label =
            Printf.sprintf "%s under order %s" name
              (String.concat "" (List.map string_of_int (Array.to_list order)))
          in
          checkb label true (Runtime.Kernel.sequential plan ~steps = reference);
          same_set label (observed_set plan compiled whole) touched)
        (axis_permutations (Nest.nesting nest)))
    [
      Programs.stencil5 ~n:12 ();
      Programs.matmul ~n:8 ();
      Programs.example3 ~n:10 ();
    ]

let test_inplace_not_reorderable () =
  (* In-place relaxation reads the array it writes: reordering would
     change which neighbours are fresh, so the analysis must refuse. *)
  let compiled = Runtime.Exec.compile (Programs.relax_inplace ~n:10 ()) in
  let plan = Runtime.Kernel.plan compiled in
  checkb "relax_inplace not reorderable" false (Runtime.Kernel.reorderable plan);
  checkb "identity order"
    true
    (Runtime.Kernel.order plan = [| 0; 1 |])

let test_matmul_rotates_unit_axis_innermost () =
  let compiled = Runtime.Exec.compile (Programs.matmul ~n:8 ()) in
  let plan = Runtime.Kernel.plan compiled in
  (* C[i,j] and B[k,j] walk unit stride along j, only A[i,k] along k:
     j goes innermost, giving i,k,j. *)
  checkb "order is i,k,j" true (Runtime.Kernel.order plan = [| 0; 2; 1 |])

(* ------------------------------------------------------------------ *)
(* Shape selection                                                     *)
(* ------------------------------------------------------------------ *)

let shape_of ?force_generic nest =
  Runtime.Kernel.shape
    (Runtime.Kernel.plan ?force_generic (Runtime.Exec.compile nest))

(* The gallery has no plain 1-read body, so build the canonical copy
   nest. *)
let copy_nest =
  let open Dsl in
  let i = var 0 and j = var 1 in
  nest ~name:"copy2d"
    [ doall "i" 1 8; doall "j" 1 8 ]
    [ write "A" [ i; j ]; read "B" [ j; i ] ]

let test_shapes () =
  checks "stencil5" "stencil5" (shape_of (Programs.stencil5 ~n:8 ()));
  checks "matmul is generic" "generic" (shape_of (Programs.matmul ~n:6 ()));
  checks "copy is generic" "generic" (shape_of copy_nest);
  checks "example9 is generic" "generic" (shape_of (Programs.example9 ~n:8 ()));
  checks "forced generic" "generic"
    (shape_of ~force_generic:true (Programs.stencil5 ~n:8 ()))

(* ------------------------------------------------------------------ *)
(* Degenerate and partial boxes                                        *)
(* ------------------------------------------------------------------ *)

let run_boxes_interp compiled boxes ~steps =
  let storage = Runtime.Exec.alloc compiled in
  let run_box = Runtime.Exec.run_box compiled storage in
  for _ = 1 to steps do
    List.iter run_box boxes
  done;
  storage

let test_empty_box_is_noop () =
  let compiled = Runtime.Exec.compile (Programs.stencil5 ~n:8 ()) in
  let plan = Runtime.Kernel.plan compiled in
  let storage = Runtime.Exec.alloc compiled in
  let before = Array.copy storage in
  let empty = [ [| (3, 2); (1, 6) |]; [| (1, 6); (3, 2) |] ] in
  List.iter (Runtime.Kernel.run_box plan storage) empty;
  checkb "empty boxes leave operands untouched" true (storage = before);
  check "empty boxes observe nothing" 0
    (Runtime.Measure.touched_count (observed_set plan compiled empty));
  check "empty volume" 0 (Runtime.Exec.box_volume [| (3, 2); (1, 6) |])

let test_degenerate_and_partial_boxes () =
  (* Extent-1 axes, single-point boxes, and a partial cover must all
     agree with the interpreter over the same boxes, in values and in
     the elements they touch. *)
  List.iter
    (fun (nest, boxes) ->
      let compiled = Runtime.Exec.compile nest in
      let plan = Runtime.Kernel.plan compiled in
      let storage = Runtime.Exec.alloc compiled in
      let label =
        Printf.sprintf "%s over %d boxes" nest.Nest.name (List.length boxes)
      in
      List.iter (Runtime.Kernel.run_box plan storage) boxes;
      checkb label true (storage = run_boxes_interp compiled boxes ~steps:1);
      same_set label
        (observed_set plan compiled boxes)
        (interpreted_set compiled boxes))
    [
      (Programs.stencil5 ~n:9 (), [ [| (2, 2); (1, 7) |]; [| (3, 6); (4, 4) |] ]);
      (Programs.stencil5 ~n:9 (), [ [| (5, 5); (5, 5) |] ]);
      (Programs.matmul ~n:6 (), [ [| (1, 6); (2, 2); (1, 6) |] ]);
      (Programs.matmul ~n:6 (), [ [| (1, 3); (4, 2); (1, 6) |] ]);
    ]

(* The box bodies address operands unchecked, so [Exec.run] and
   [Exec.measure] reject a box outside the iteration space before any
   of them runs: here matmul's (0..5, 2, 0..5) on 1..6, as tiled work
   and as a self-scheduled space. *)
let test_box_outside_space_rejected () =
  let nest = Programs.matmul ~n:6 () in
  let compiled = Runtime.Exec.compile nest in
  let plan = Runtime.Kernel.plan compiled in
  let outside = [| (0, 5); (2, 2); (0, 5) |] in
  let raises what f =
    match f () with
    | _ -> Alcotest.failf "%s: a box outside the space ran" what
    | exception Invalid_argument _ -> ()
  in
  Runtime.Pool.with_pool 1 (fun pool ->
      List.iter
        (fun (kind, work) ->
          raises ("Exec.run, " ^ kind) (fun () ->
              Runtime.Exec.run ~trace:Runtime.Trace.disabled
                ~box:(Runtime.Kernel.run_box plan)
                ~observe:(Runtime.Kernel.observe plan) pool compiled work
                ~steps:1 ~repeats:1);
          raises ("Exec.measure, " ^ kind) (fun () ->
              Runtime.Exec.measure pool compiled work ~steps:1))
        [
          ("tiled", Runtime.Exec.of_tiles [| (0, [| outside |]) |]);
          ( "dynamic",
            Runtime.Exec.Dynamic
              { space = outside; chunk = (fun ~remaining:_ -> 1) } );
        ])

(* Everything but the two running-address arrays is built by the plan:
   a box, a 1-point one included, allocates exactly those (one header
   word each), whatever the shape - whether it runs the box or only
   observes it. *)
let test_box_allocates_only_cursors () =
  List.iter
    (fun nest ->
      let compiled = Runtime.Exec.compile nest in
      let plan = Runtime.Kernel.plan compiled in
      let cursors =
        Array.length (Runtime.Exec.reads compiled)
        + Array.length (Runtime.Exec.writes compiled)
        + 2
      in
      List.iter
        (fun (what, body) ->
          List.iter
            (fun box ->
              body box;
              let before = Gc.minor_words () in
              for _ = 1 to 100 do
                body box
              done;
              check
                (Printf.sprintf "%s: words per %s box" nest.Nest.name what)
                (100 * cursors)
                (int_of_float (Gc.minor_words () -. before)))
            (List.map
               (Array.make (Nest.nesting nest))
               [ (2, 2); (2, 5) ]))
        [
          ("run", Runtime.Kernel.run_box plan (Runtime.Exec.alloc compiled));
          ( "observed",
            Runtime.Kernel.observe plan
              (Runtime.Measure.touched
                 ~universe:(Runtime.Exec.total_elements compiled)) );
        ])
    [
      Programs.stencil5 ~n:8 ();
      Programs.matmul ~n:6 ();
      Programs.conv3x3 ~n:8 ();
    ]

(* ------------------------------------------------------------------ *)
(* Observed footprints                                                 *)
(* ------------------------------------------------------------------ *)

(* Per domain, over the boxes of its [Codegen.tiles], the observer sets
   exactly the interpreter's bits: on every gallery nest at P = 2, 3
   and 4 under the rectangular tile, and on the two-deep ones also
   under the parallelepiped tile where the skewed engine finds it
   (example3's sheared tiles among them; the three-deep nests are left
   out to keep the test short), in each plan's own traversal order
   (matmul's rotated one included).  The union over the domains must
   agree too. *)
let test_observe_gallery_tiles () =
  List.iter
    (fun (name, nest) ->
      let compiled = Runtime.Exec.compile nest in
      let plan = Runtime.Kernel.plan compiled in
      List.iter
        (fun (nprocs, try_skewed) ->
          let a = Driver.analyze ~try_skewed ~nprocs nest in
          let sched = Driver.schedule ~tile:(Driver.best_tile a) a in
          if name = "example3" && try_skewed && nprocs = 2 then
            checkb "example3 takes a parallelepiped tile" true
              (match sched.Codegen.tile with
              | Tile.Pped _ -> true
              | Tile.Rect _ -> false);
          let tiles = Codegen.tiles sched in
          let mine p =
            Array.to_list tiles
            |> List.concat_map (fun (owner, boxes) ->
                   if owner = p then Array.to_list boxes else [])
          in
          let label p =
            Printf.sprintf "%s, P=%d%s, domain %s" name nprocs
              (if try_skewed then " skewed" else "")
              p
          in
          let observed = Array.init nprocs (fun p -> observed_set plan compiled (mine p))
          and interpreted =
            Array.init nprocs (fun p -> interpreted_set compiled (mine p))
          in
          Array.iteri
            (fun p o -> same_set (label (string_of_int p)) o interpreted.(p))
            observed;
          check (label "union")
            (Runtime.Measure.union_count interpreted)
            (Runtime.Measure.union_count observed))
        (List.concat_map
           (fun nprocs ->
             (nprocs, false)
             :: (if Nest.nesting nest = 2 then [ (nprocs, true) ] else []))
           [ 2; 3; 4 ]))
    Programs.all

(* ------------------------------------------------------------------ *)
(* Values                                                              *)
(* ------------------------------------------------------------------ *)

let same_bits a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       a b

(* Every gallery nest, plus the copy nest, through the kernel over the
   whole space - with the default plan and with [force_generic] - must
   leave the interpreter's buffer bit for bit.  Between them the nests
   reach the stencil loop, the unrolled arities 1 (plain and
   accumulate) to 5 and the single-write array-cursor loop; no gallery
   body has two writes, so the multi-write loop is left to oracle 8. *)
let test_gallery_values () =
  List.iter
    (fun (name, nest) ->
      let compiled = Runtime.Exec.compile nest in
      let steps = steps_of nest in
      let reference = Runtime.Exec.sequential compiled ~steps in
      List.iter
        (fun force_generic ->
          let plan = Runtime.Kernel.plan ~force_generic compiled in
          checkb
            (Printf.sprintf "%s (%s%s)" name (Runtime.Kernel.shape plan)
               (if force_generic then ", forced" else ""))
            true
            (same_bits (Runtime.Kernel.sequential plan ~steps) reference))
        [ false; true ])
    (("copy2d", copy_nest) :: Programs.all)

(* The kernel's checksum is the sum of the interpreter's buffer. *)
let test_kernel_checksum () =
  List.iter
    (fun nest ->
      let steps = steps_of nest in
      let compiled = Runtime.Exec.compile nest in
      let kernel =
        Runtime.Kernel.sequential (Runtime.Kernel.plan compiled) ~steps
      in
      checkb
        (Printf.sprintf "%s: kernel = interpreter checksum" nest.Nest.name)
        true
        (Runtime.Exec.checksum kernel
        = Array.fold_left ( +. ) 0.0 (Runtime.Exec.sequential compiled ~steps)))
    [ Programs.stencil5 ~n:10 (); Programs.matmul ~n:7 () ]

(* ------------------------------------------------------------------ *)
(* Parallel execution                                                  *)
(* ------------------------------------------------------------------ *)

let test_parallel_kernel_matches_sequential () =
  List.iter
    (fun (nest, nprocs) ->
      let a = Driver.analyze ~nprocs nest in
      let sched = Driver.schedule a in
      let compiled = Runtime.Exec.compile nest in
      let plan = Runtime.Kernel.plan compiled in
      let boxes = Scheduling.of_schedule sched in
      let steps = steps_of nest in
      (* Kernel.time counts the iterations; the same pass through
         Exec.time_with keeps the storage it allocates for the value
         check. *)
      let storage = ref None in
      let box s =
        storage := Some s;
        Runtime.Kernel.run_box plan s
      in
      let _, _, iterations =
        Runtime.Pool.with_pool nprocs (fun pool ->
            ignore
              (Runtime.Exec.time_with ~box ~trace:Runtime.Trace.disabled pool
                 compiled (Runtime.Exec.static_of_assignment boxes) ~steps
                 ~repeats:1);
            Runtime.Kernel.time pool plan ~boxes ~steps ~repeats:1)
      in
      Array.iteri
        (fun p bs ->
          check
            (Printf.sprintf "%s: domain %d ran its boxes every step"
               nest.Nest.name p)
            (steps
            * Array.fold_left (fun acc b -> acc + Runtime.Exec.box_volume b) 0 bs
            )
            iterations.(p))
        boxes;
      check
        (Printf.sprintf "%s: every iteration executed" nest.Nest.name)
        (steps * Array.fold_left ( * ) 1 (Nest.extents nest))
        (Array.fold_left ( + ) 0 iterations);
      checkb
        (Printf.sprintf "%s: parallel kernel = sequential interpreter"
           nest.Nest.name)
        true
        (Option.get !storage = Runtime.Exec.sequential compiled ~steps))
    [ (Programs.stencil5 ~n:16 (), 4); (Programs.example3 ~n:12 (), 3) ]

(* One [run_box plan storage] shared by every domain of a 4-domain
   pool, the way [Exec.time_with] and [Resilient] share it, over long
   boxes (stencil5 tiles) and over the 1-point boxes of cyclic
   self-scheduling.  A body that kept cursor state per partial
   application would race here. *)
let test_shared_body () =
  let nest = Programs.stencil5 ~n:256 ~steps:2 () in
  let nprocs = 4 and steps = 2 in
  let compiled = Runtime.Exec.compile nest in
  let plan = Runtime.Kernel.plan compiled in
  let reference = Runtime.Exec.sequential compiled ~steps in
  let tiles = Codegen.tiles (Driver.schedule (Driver.analyze ~nprocs nest)) in
  List.iter
    (fun (label, work) ->
      let storage = ref None and bodies = ref 0 in
      let box s =
        storage := Some s;
        incr bodies;
        Runtime.Kernel.run_box plan s
      in
      Runtime.Pool.with_pool nprocs (fun pool ->
          ignore
            (Runtime.Exec.time_with ~box ~trace:Runtime.Trace.disabled pool
               compiled work ~steps ~repeats:1));
      check (label ^ ": one body for all domains") 1 !bodies;
      checkb (label ^ ": shared body = sequential interpreter") true
        (same_bits (Option.get !storage) reference))
    [
      ("tiled", Runtime.Exec.of_tiles tiles);
      ( "cyclic",
        Runtime.Exec.Dynamic
          { space = Nest.bounds nest; chunk = (fun ~remaining:_ -> 1) } );
    ]

(* The repeats of one timed call share one buffer, reset to the initial
   operands before each: on matmul, whose accumulates would carry one
   repeat's sums into the next, the first box of every repeat must find
   [Exec.alloc]'s values, and the whole call applies [box] once. *)
let test_repeats_reset_buffer () =
  let nest = Programs.matmul ~n:8 () in
  let compiled = Runtime.Exec.compile nest in
  let plan = Runtime.Kernel.plan compiled in
  let initial = Runtime.Exec.alloc compiled in
  let boxes =
    Scheduling.of_schedule (Driver.schedule (Driver.analyze ~nprocs:1 nest))
  in
  let per_repeat = Array.length boxes.(0) and repeats = 3 in
  let buffers = ref 0 and calls = ref 0 and fresh = ref [] in
  let box s =
    incr buffers;
    let run = Runtime.Kernel.run_box plan s in
    fun b ->
      if !calls mod per_repeat = 0 then fresh := same_bits s initial :: !fresh;
      incr calls;
      run b
  in
  let r =
    Runtime.Pool.with_pool 1 (fun pool ->
        Runtime.Exec.run ~trace:Runtime.Trace.disabled ~box
          ~observe:(Runtime.Kernel.observe plan) pool compiled
          (Runtime.Exec.static_of_assignment boxes)
          ~steps:1 ~repeats)
  in
  check "one buffer per call" 1 !buffers;
  check "boxes run" (repeats * per_repeat) !calls;
  Alcotest.(check (list bool))
    "every repeat starts from the initial operands"
    (List.init repeats (fun _ -> true))
    (List.rev !fresh);
  checkb "checksum = sequential interpreter" true
    (Float.equal r.Runtime.Measure.checksum
       (Runtime.Exec.checksum (Runtime.Exec.sequential compiled ~steps:1)))

(* Every box of [Driver.execute] runs through the kernel: the policy
   names its shape, and the checksum is the interpreter's. *)
let test_driver_runs_kernel () =
  let nest = Programs.stencil5 ~n:16 () in
  let a = Driver.analyze ~nprocs:4 nest in
  let r =
    Driver.execute
      ~config:{ Driver.default_exec_config with repeats = 1; steps = Some 1 }
      a
  in
  checks "policy names the kernel" "compile-time tiles + stencil5 kernel"
    r.Runtime.Measure.policy;
  checkb "checksum = sequential interpreter" true
    (Float.equal r.Runtime.Measure.checksum
       (Runtime.Exec.checksum
          (Runtime.Exec.sequential (Runtime.Exec.compile nest) ~steps:1)));
  check "all iterations counted"
    (Array.fold_left ( * ) 1 (Nest.extents nest))
    (Array.fold_left
       (fun acc (d : Runtime.Measure.domain_stat) ->
         acc + d.Runtime.Measure.iterations)
       0 r.Runtime.Measure.per_domain)

(* Large enough (n = 128) that the four domains' tiles overlap in
   time. *)
let test_resilient_matches_sequential () =
  let nest = Programs.stencil5 ~n:128 () in
  let a = Driver.analyze ~nprocs:4 nest in
  let report, buffer = Driver.execute_resilient a in
  checkb "resilient run completed" true report.Runtime.Report.completed;
  let compiled = Runtime.Exec.compile nest in
  checkb "resilient buffer = sequential" true
    (same_bits buffer (Runtime.Exec.sequential compiled ~steps:(steps_of nest)))

let () =
  Alcotest.run "kernel"
    [
      ( "strides",
        [
          Alcotest.test_case "deltas match Exec.address on the gallery" `Quick
            test_strides_match_address;
        ] );
      ( "order",
        [
          Alcotest.test_case "permutations preserve results" `Quick
            test_permutations_preserve_results;
          Alcotest.test_case "in-place nests refuse reordering" `Quick
            test_inplace_not_reorderable;
          Alcotest.test_case "matmul rotates j innermost" `Quick
            test_matmul_rotates_unit_axis_innermost;
        ] );
      ( "shapes",
        [ Alcotest.test_case "shape selection" `Quick test_shapes ] );
      ( "boxes",
        [
          Alcotest.test_case "empty box is a no-op" `Quick test_empty_box_is_noop;
          Alcotest.test_case "degenerate and partial boxes" `Quick
            test_degenerate_and_partial_boxes;
          Alcotest.test_case "a box allocates only its cursors" `Quick
            test_box_allocates_only_cursors;
          Alcotest.test_case "a box outside the space is rejected" `Quick
            test_box_outside_space_rejected;
        ] );
      ( "observe",
        [
          Alcotest.test_case "gallery tiles at P = 2, 3, 4" `Quick
            test_observe_gallery_tiles;
        ] );
      ( "values",
        [
          Alcotest.test_case "gallery kernel = interpreter" `Quick
            test_gallery_values;
          Alcotest.test_case "kernel checksum = interpreter sum" `Quick
            test_kernel_checksum;
        ] );
      ( "parallel",
        [
          Alcotest.test_case "pool kernel = sequential interpreter" `Quick
            test_parallel_kernel_matches_sequential;
          Alcotest.test_case "one body shared by 4 domains" `Quick
            test_shared_body;
          Alcotest.test_case "repeats reset one buffer" `Quick
            test_repeats_reset_buffer;
          Alcotest.test_case "Driver.execute runs the kernel" `Quick
            test_driver_runs_kernel;
          Alcotest.test_case "Resilient.execute = sequential" `Quick
            test_resilient_matches_sequential;
        ] );
    ]
