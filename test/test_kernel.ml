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
let same_bits = Runtime.Exec.same_bits

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
    Intmath.Bitset.create ~universe:(Runtime.Exec.total_elements compiled)
  in
  let addrs =
    List.map (Runtime.Exec.address compiled) (Runtime.Exec.nest compiled).Nest.body
  in
  List.iter
    (fun b ->
      Runtime.Exec.iter_box b (fun p ->
          List.iter (fun addr -> Intmath.Bitset.add set (addr p)) addrs))
    boxes;
  set

let observed_set plan compiled boxes =
  let set =
    Intmath.Bitset.create ~universe:(Runtime.Exec.total_elements compiled)
  in
  List.iter
    (Runtime.Kernel.observe plan ~reads:set ~writes:set ~accumulates:set)
    boxes;
  set

(* Two sets over one universe are equal iff their payload bytes are. *)
let same_set label (a : Intmath.Bitset.t) (b : Intmath.Bitset.t) =
  check (label ^ ": count") (Intmath.Bitset.cardinal b)
    (Intmath.Bitset.cardinal a);
  checkb (label ^ ": same elements") true (Bytes.equal a.bits b.bits)

(* [|⋃ sets|], as the runtime counts it. *)
let union_count (sets : Intmath.Bitset.t array) =
  let none =
    Array.map
      (fun (s : Intmath.Bitset.t) -> Intmath.Bitset.create ~universe:s.universe)
      sets
  in
  (Runtime.Measure.sharing ~reads:sets ~writes:none ~accumulates:none)
    .Runtime.Measure.distinct

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

let shape_of ?force_generic ?order nest =
  Runtime.Kernel.shape
    (Runtime.Kernel.plan ?force_generic ?order (Runtime.Exec.compile nest))

(* The gallery has no plain 1-read body, so build the canonical copy
   nest. *)
let copy_nest =
  let open Dsl in
  let i = var 0 and j = var 1 in
  nest ~name:"copy2d"
    [ doall "i" 1 8; doall "j" 1 8 ]
    [ write "A" [ i; j ]; read "B" [ j; i ] ]

(* A row is unit-stride when its single write and its 1 to 5 reads all
   advance by +1 along the innermost traversal axis, whatever the
   pattern: plain, in place or accumulating.  Strided references, more
   than five reads, [force_generic] or an order that puts a strided
   axis innermost leave the generic loops. *)
let test_shapes () =
  List.iter
    (fun nest ->
      checks (nest.Nest.name ^ " is unit-stride") "unit-stride" (shape_of nest))
    [
      Programs.stencil5 ~n:8 ();
      Programs.example3 ~n:8 ();
      Programs.relax_inplace ~n:8 ();
      Programs.diag_accumulate ~n:8 ();
    ];
  List.iter
    (fun nest ->
      checks (nest.Nest.name ^ " is generic") "generic" (shape_of nest))
    [
      Programs.matmul ~n:6 ();
      Programs.example9 ~n:8 ();
      Programs.transpose_like ~n:8 ();
      copy_nest;
    ];
  checks "forced generic" "generic"
    (shape_of ~force_generic:true (Programs.stencil5 ~n:8 ()));
  checks "stencil5 with i innermost" "generic"
    (shape_of ~order:[| 1; 0 |] (Programs.stencil5 ~n:8 ()))

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
    (Intmath.Bitset.cardinal (observed_set plan compiled empty));
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
      checkb label true
        (same_bits storage (run_boxes_interp compiled boxes ~steps:1));
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

(* A body's two cursor arrays are made when [run_box plan storage] or
   [observe plan ~reads ~writes ~accumulates] is applied: 10,000 boxes
   through one body, 1-point or full-row, allocate nothing beyond what
   the [Gc.minor_words] probe itself allocates, whatever the shape -
   whether the body runs the box or only observes it. *)
let test_box_allocates_nothing () =
  let probe () =
    let before = Gc.minor_words () in
    Gc.minor_words () -. before
  in
  let own = probe () in
  List.iter
    (fun nest ->
      let compiled = Runtime.Exec.compile nest in
      let plan = Runtime.Kernel.plan compiled in
      let set =
        Intmath.Bitset.create ~universe:(Runtime.Exec.total_elements compiled)
      in
      let point = Array.make (Nest.nesting nest) (2, 2) in
      let row = Array.copy point in
      row.(Nest.nesting nest - 1) <- (Nest.bounds nest).(Nest.nesting nest - 1);
      List.iter
        (fun (what, body) ->
          List.iter
            (fun (kind, box) ->
              body box;
              let before = Gc.minor_words () in
              for _ = 1 to 10_000 do
                body box
              done;
              Alcotest.(check (float 0.0))
                (Printf.sprintf "%s: words for 10,000 %s %s boxes"
                   nest.Nest.name what kind)
                own
                (Gc.minor_words () -. before))
            [ ("1-point", point); ("full-row", row) ])
        [
          ("run", Runtime.Kernel.run_box plan (Runtime.Exec.alloc compiled));
          ( "observed",
            Runtime.Kernel.observe plan ~reads:set ~writes:set ~accumulates:set
          );
        ])
    [
      Programs.stencil5 ~n:8 ();
      Programs.matmul ~n:6 ();
      Programs.conv3x3 ~n:8 ();
    ]

(* A body's cursors serve the domain that applied it: called from a
   second domain, a run or observing body raises [Invalid_argument]
   before it touches a cursor, and still works on its own domain. *)
let test_body_bound_to_domain () =
  let nest = Programs.stencil5 ~n:8 () in
  let compiled = Runtime.Exec.compile nest in
  let plan = Runtime.Kernel.plan compiled in
  let set =
    Intmath.Bitset.create ~universe:(Runtime.Exec.total_elements compiled)
  in
  let whole = Nest.bounds nest in
  List.iter
    (fun (what, body) ->
      let elsewhere =
        Domain.join
          (Domain.spawn (fun () ->
               match body whole with
               | () -> false
               | exception Invalid_argument _ -> true))
      in
      checkb (what ^ ": refused on another domain") true elsewhere;
      body whole)
    [
      ("run", Runtime.Kernel.run_box plan (Runtime.Exec.alloc compiled));
      ( "observed",
        Runtime.Kernel.observe plan ~reads:set ~writes:set ~accumulates:set );
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
            (union_count interpreted) (union_count observed))
        (List.concat_map
           (fun nprocs ->
             (nprocs, false)
             :: (if Nest.nesting nest = 2 then [ (nprocs, true) ] else []))
           [ 2; 3; 4 ]))
    Programs.all

(* One row per kind of reference: per domain, over the boxes of its
   assignment, the observer's read, write and accumulate rows are
   exactly [Exec.measure]'s read, write and accumulate sets, on nests
   with plain writes only, accumulates only, and both.  A row is empty
   exactly when the body has no reference of its kind. *)
let test_observe_three_rows () =
  let mixed =
    let open Dsl in
    let i = var 0 and j = var 1 in
    nest ~name:"mixed"
      [ doall "i" 1 8; doall "j" 1 8 ]
      [ write "A" [ i ]; accumulate "S" [ i + j ]; read "X" [ i; j ] ]
  in
  let nprocs = 2 in
  List.iter
    (fun nest ->
      let compiled = Runtime.Exec.compile nest in
      let plan = Runtime.Kernel.plan compiled in
      let assignment =
        Scheduling.of_schedule (Driver.schedule (Driver.analyze ~nprocs nest))
      in
      let inst =
        Runtime.Pool.with_pool nprocs (fun pool ->
            Runtime.Exec.measure pool compiled
              (Runtime.Exec.static_of_assignment assignment)
              ~steps:1)
      in
      let has accumulate =
        Array.exists
          (fun (_, a) -> a = accumulate)
          (Runtime.Exec.writes compiled)
      in
      let row () =
        Intmath.Bitset.create ~universe:(Runtime.Exec.total_elements compiled)
      in
      Array.iteri
        (fun p boxes ->
          let reads = row () and writes = row () and accumulates = row () in
          Array.iter
            (Runtime.Kernel.observe plan ~reads ~writes ~accumulates)
            boxes;
          let label kind =
            Printf.sprintf "%s, domain %d, %s" nest.Nest.name p kind
          in
          same_set (label "reads") reads inst.Runtime.Exec.read_sets.(p);
          same_set (label "writes") writes inst.Runtime.Exec.write_sets.(p);
          same_set (label "accumulates") accumulates
            inst.Runtime.Exec.accumulate_sets.(p);
          checkb (label "plain writes held") (has false)
            (Intmath.Bitset.cardinal writes > 0);
          checkb (label "accumulates held") (has true)
            (Intmath.Bitset.cardinal accumulates > 0))
        assignment)
    [
      Programs.matmul ~n:8 ();
      Programs.diag_accumulate ~n:12 ();
      Programs.stencil5 ~n:16 ();
      mixed;
    ]

(* ------------------------------------------------------------------ *)
(* Values                                                              *)
(* ------------------------------------------------------------------ *)

(* Every gallery nest, plus the copy nest, through the kernel over the
   whole space - with the default plan and with [force_generic] - must
   leave the interpreter's buffer bit for bit.  Between them the nests
   reach the unit-stride loops of arities 1 (accumulate) to 5, the
   strided unrolled arities 1 (plain and accumulate) to 5 - every
   unrolled body is strided under [force_generic] - and the single-write
   array-cursor loop; no gallery body has two writes, so the multi-write
   loop is left to oracle 8.  Random unit-stride bodies are below. *)
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

(* Random bodies whose single write and 1 to 5 reads all advance by +1
   along the innermost axis - a plain write to a fresh array, an
   accumulate (into a full-rank or a 1-D array) and an in-place write
   whose reads hit the written array - over random boxes with partial,
   1-point and empty innermost rows.  The unit-stride plan, the
   [force_generic] plan (the strided loop of the same arity) and the
   interpreter must leave the same buffer bit for bit.  The fuzz
   campaign reaches a unit row rarely, and never at arities 4 and 5. *)
let test_random_unit_stride () =
  let rng = Random.State.make [| 30 |] in
  let pick a = a.(Random.State.int rng (Array.length a)) in
  let between lo hi = lo + Random.State.int rng (hi - lo + 1) in
  let hit = Hashtbl.create 16 in
  for case = 1 to 300 do
    let d = between 2 3 and nr = between 1 5 in
    let last = d - 1 in
    let kind = pick [| `Plain; `Accumulate; `Accumulate_1d; `In_place |] in
    let nest =
      let open Dsl in
      let innermost c = var last + int c in
      let full c = List.init d (fun k -> var k + int (c k)) in
      let off () = between (-1) 1 in
      let write_ref =
        match kind with
        | `Plain | `In_place -> write "A" (full (fun _ -> 0))
        | `Accumulate -> accumulate "A" (full (fun _ -> 0))
        | `Accumulate_1d -> accumulate "A" [ innermost 0 ]
      in
      let read_ref () =
        match (kind, Random.State.int rng 2) with
        | `In_place, _ -> read "A" (full (fun _ -> off ()))
        | _, 0 -> read "B" (full (fun _ -> off ()))
        | _ -> read "C" [ innermost (off ()) ]
      in
      nest ~name:(Printf.sprintf "unit%d" case)
        (List.init d (fun k ->
             doall (Printf.sprintf "i%d" k) 1 (between 2 7)))
        (write_ref :: List.init nr (fun _ -> read_ref ()))
    in
    let label = Printf.sprintf "case %d (%s)" case nest.Nest.name in
    let compiled = Runtime.Exec.compile nest in
    let unit = Runtime.Kernel.plan compiled
    and strided = Runtime.Kernel.plan ~force_generic:true compiled in
    checks (label ^ ": unit plan") "unit-stride" (Runtime.Kernel.shape unit);
    checks (label ^ ": forced plan") "generic" (Runtime.Kernel.shape strided);
    Hashtbl.replace hit (nr, kind) ();
    let bounds = Nest.bounds nest in
    let box () =
      Array.mapi
        (fun k (lo, hi) ->
          let a = between lo hi in
          if k < last then (a, between a hi)
          else
            match Random.State.int rng 4 with
            | 0 -> (a, a)
            | 1 -> (a, a - 1)
            | _ -> (a, between a hi))
        bounds
    in
    let boxes = bounds :: List.init 3 (fun _ -> box ()) in
    let through run_box =
      let storage = Runtime.Exec.alloc compiled in
      List.iter (run_box storage) boxes;
      storage
    in
    let reference = through (Runtime.Exec.run_box compiled) in
    checkb (label ^ ": unit = interpreter") true
      (same_bits (through (Runtime.Kernel.run_box unit)) reference);
    checkb (label ^ ": strided = interpreter") true
      (same_bits (through (Runtime.Kernel.run_box strided)) reference)
  done;
  check "every arity and write kind reached" 20 (Hashtbl.length hit)

(* Value checks compare bits: [=] on floats calls [0.0] and [-0.0]
   equal and a NaN unequal to itself; [Exec.same_bits] says the
   opposite, and lengths must agree. *)
let test_same_bits () =
  checkb "0.0 and -0.0 differ" false (same_bits [| 0.0 |] [| -0.0 |]);
  checkb "a NaN equals itself" true (same_bits [| Float.nan |] [| Float.nan |]);
  checkb "equal buffers" true (same_bits [| 1.0; 2.5 |] [| 1.0; 2.5 |]);
  checkb "lengths differ" false (same_bits [| 1.0 |] [| 1.0; 1.0 |])

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

(* Every domain of a 4-domain pool applies [run_box plan storage] to
   the call's one buffer, the way [Exec.time_with] and [Resilient] do,
   and runs its boxes through its own body: over long boxes (stencil5
   tiles) and over the 1-point boxes of cyclic self-scheduling, the
   buffer is the interpreter's.  A body shared by the domains would
   refuse all but one of them. *)
let test_body_per_domain () =
  let nest = Programs.stencil5 ~n:256 ~steps:2 () in
  let nprocs = 4 and steps = 2 in
  let compiled = Runtime.Exec.compile nest in
  let plan = Runtime.Kernel.plan compiled in
  let reference = Runtime.Exec.sequential compiled ~steps in
  let tiles = Codegen.tiles (Driver.schedule (Driver.analyze ~nprocs nest)) in
  List.iter
    (fun (label, work) ->
      let storage = ref None and bodies = Atomic.make 0 in
      let box s =
        storage := Some s;
        Atomic.incr bodies;
        Runtime.Kernel.run_box plan s
      in
      Runtime.Pool.with_pool nprocs (fun pool ->
          ignore
            (Runtime.Exec.time_with ~box ~trace:Runtime.Trace.disabled pool
               compiled work ~steps ~repeats:1));
      check (label ^ ": one body per domain") nprocs (Atomic.get bodies);
      checkb (label ^ ": per-domain bodies = sequential interpreter") true
        (same_bits (Option.get !storage) reference))
    [
      ("tiled", Runtime.Exec.of_tiles tiles);
      ( "cyclic",
        Runtime.Exec.Dynamic
          { space = Nest.bounds nest; chunk = (fun ~remaining:_ -> 1) } );
    ]

(* The repeats of one [Exec.run] on one domain, with [box] instrumented:
   the buffers it was applied to, how many boxes ran, whether each
   repeat's first box found [Exec.alloc]'s values, and the run. *)
let instrumented_repeats nest ~repeats =
  let compiled = Runtime.Exec.compile nest in
  let plan = Runtime.Kernel.plan compiled in
  let initial = Runtime.Exec.alloc compiled in
  let boxes =
    Scheduling.of_schedule (Driver.schedule (Driver.analyze ~nprocs:1 nest))
  in
  let per_repeat = Array.length boxes.(0) in
  let buffers = ref [] and calls = ref 0 and fresh = ref [] in
  let box s =
    buffers := s :: !buffers;
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
  checkb (nest.Nest.name ^ ": one buffer per call") true
    (List.for_all (fun s -> s == List.hd !buffers) !buffers);
  check (nest.Nest.name ^ ": boxes run") (repeats * per_repeat) !calls;
  checkb (nest.Nest.name ^ ": checksum = sequential interpreter") true
    (Float.equal r.Runtime.Measure.checksum
       (Runtime.Exec.checksum (Runtime.Exec.sequential compiled ~steps:1)));
  (List.rev !fresh, r)

(* The repeats of one timed call share one buffer, reset to the initial
   operands before each when a repeat's result depends on what it
   starts from: on matmul, whose accumulates would carry one repeat's
   sums into the next, and on relax_inplace, which reads what it
   writes, the first box of every repeat must find [Exec.alloc]'s
   values, and every application of [box] gets the one buffer. *)
let test_repeats_reset_buffer () =
  let repeats = 3 in
  List.iter
    (fun nest ->
      let fresh, r = instrumented_repeats nest ~repeats in
      Alcotest.(check (list bool))
        (nest.Nest.name ^ ": every repeat starts from the initial operands")
        (List.init repeats (fun _ -> true))
        fresh;
      checkb (nest.Nest.name ^ ": reset before each") true
        (r.Runtime.Measure.repeat_buffer = Runtime.Measure.Reset_each))
    [ Programs.matmul ~n:8 (); Programs.relax_inplace ~n:8 () ]

(* A nest that never reads what it writes leaves the same buffer
   whatever a repeat starts from, so its repeats run on one buffer with
   no reset: only the first starts from [Exec.alloc]'s values, and the
   checksum, taken once after the last, is still the interpreter's. *)
let test_write_only_reuses_buffer () =
  let repeats = 3 in
  List.iter
    (fun nest ->
      let fresh, r = instrumented_repeats nest ~repeats in
      Alcotest.(check (list bool))
        (nest.Nest.name ^ ": only the first repeat starts from alloc")
        (true :: List.init (repeats - 1) (fun _ -> false))
        fresh;
      checkb (nest.Nest.name ^ ": no reset") true
        (r.Runtime.Measure.repeat_buffer = Runtime.Measure.Reused))
    [ Programs.example3 ~n:12 (); Programs.stencil5 ~n:16 () ]

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
  checks "policy names the kernel" "compile-time tiles + unit-stride kernel"
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
          Alcotest.test_case "a box allocates nothing" `Quick
            test_box_allocates_nothing;
          Alcotest.test_case "a body is bound to its domain" `Quick
            test_body_bound_to_domain;
          Alcotest.test_case "a box outside the space is rejected" `Quick
            test_box_outside_space_rejected;
        ] );
      ( "observe",
        [
          Alcotest.test_case "gallery tiles at P = 2, 3, 4" `Quick
            test_observe_gallery_tiles;
          Alcotest.test_case "reads, writes and accumulates" `Quick
            test_observe_three_rows;
        ] );
      ( "values",
        [
          Alcotest.test_case "gallery kernel = interpreter" `Quick
            test_gallery_values;
          Alcotest.test_case "kernel checksum = interpreter sum" `Quick
            test_kernel_checksum;
          Alcotest.test_case "random unit-stride bodies" `Quick
            test_random_unit_stride;
          Alcotest.test_case "buffers compare bit for bit" `Quick
            test_same_bits;
        ] );
      ( "parallel",
        [
          Alcotest.test_case "pool kernel = sequential interpreter" `Quick
            test_parallel_kernel_matches_sequential;
          Alcotest.test_case "one body per domain" `Quick
            test_body_per_domain;
          Alcotest.test_case "repeats reset one buffer" `Quick
            test_repeats_reset_buffer;
          Alcotest.test_case "Driver.execute runs the kernel" `Quick
            test_driver_runs_kernel;
          Alcotest.test_case "Resilient.execute = sequential" `Quick
            test_resilient_matches_sequential;
          Alcotest.test_case "a write-only nest reuses one buffer" `Quick
            test_write_only_reuses_buffer;
        ] );
    ]
