(* Tests for tiles, the cost model, the rectangular and parallelepiped
   optimizers (Examples 2, 3, 8, 9, 10), code generation and data
   placement. *)

open Intmath
open Matrixkit
open Loopir
open Partition

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* The points of a processor's boxes, in execution order. *)
let points_of boxes =
  let out = ref [] in
  Codegen.iter_boxes boxes (fun p -> out := Array.copy p :: !out);
  List.rev !out

(* Every iteration of the space, lexicographic. *)
let lex_points nest = points_of [| Nest.bounds nest |]

(* The schedule's tiles, and each processor's boxes of them. *)
let tiled sched = Scheduling.of_tiles (Codegen.tiles sched)

let per_proc sched =
  Scheduling.per_proc ~nprocs:sched.Codegen.nprocs (tiled sched)

(* Self-scheduled claims over the whole space, [chunk ~remaining] each. *)
let dynamic nest chunk =
  Scheduling.Dynamic { space = Nest.bounds nest; chunk }

let cyclic nest = dynamic nest (fun ~remaining:_ -> 1)

let gss nest ~nprocs =
  dynamic nest (fun ~remaining -> Int_math.ceil_div remaining nprocs)

(* ------------------------------------------------------------------ *)
(* Tile                                                                *)
(* ------------------------------------------------------------------ *)

let test_tile_rect () =
  let t = Tile.rect [| 4; 5 |] in
  check "nesting" 2 (Tile.nesting t);
  Alcotest.(check (array int)) "lambda" [| 3; 4 |] (Tile.lambda t);
  Alcotest.check
    (Alcotest.testable Rat.pp Rat.equal)
    "volume" (Rat.of_int 20) (Tile.volume t);
  check "iterations" 20 (List.length (Tile.iterations t));
  checkb "contains origin" true (Tile.contains t [| 0; 0 |]);
  checkb "half open" false (Tile.contains t [| 4; 0 |]);
  Alcotest.(check (array int))
    "tile coords" [| 1; -1 |]
    (Tile.tile_coords t [| 5; -2 |])

let test_tile_pped () =
  let t = Tile.pped (Imat.of_rows [ [ 2; 0 ]; [ 1; 3 ] ]) in
  Alcotest.check
    (Alcotest.testable Rat.pp Rat.equal)
    "volume" (Rat.of_int 6) (Tile.volume t);
  check "iteration count = |det|" 6 (List.length (Tile.iterations t));
  checkb "rejects singular" true
    (try
       ignore (Tile.pped (Imat.of_rows [ [ 1; 2 ]; [ 2; 4 ] ]));
       false
     with Invalid_argument _ -> true)

let test_tile_pped_tiles_plane () =
  (* The half-open tiles must partition the plane: every point belongs to
     exactly the tile of its coordinates. *)
  let t = Tile.pped (Imat.of_rows [ [ 2; 1 ]; [ -1; 2 ] ]) in
  let count = ref 0 in
  for x = -4 to 4 do
    for y = -4 to 4 do
      let c = Tile.tile_coords t [| x; y |] in
      if Array.for_all (fun v -> v = 0) c then incr count
    done
  done;
  (* |det| = 5: each tile holds exactly 5 lattice points. *)
  check "half-open tile holds det points" 5 !count

let test_tile_negative_det () =
  (* det L = -7: the integer adjugate path must floor exactly like the
     rational inverse [floor(i L^-1)]. *)
  let l = Imat.of_rows [ [ 1; 2 ]; [ 3; -1 ] ] in
  let t = Tile.pped l in
  let _, det = Tile.adjugate t in
  check "det" (-7) det;
  let inv = Option.get (Qmat.inv (Qmat.of_imat l)) in
  let coords = Tile.tile_coords t in
  let count = ref 0 in
  for x = -9 to 9 do
    for y = -9 to 9 do
      let want =
        Array.map Rat.floor (Qmat.mul_row (Array.map Rat.of_int [| x; y |]) inv)
      in
      let got = coords [| x; y |] in
      Alcotest.(check (array int)) "floor(i L^-1)" want got;
      if Array.for_all (fun v -> v = 0) got then incr count
    done
  done;
  check "half-open tile holds |det| points" 7 !count

(* ------------------------------------------------------------------ *)
(* Cost model                                                          *)
(* ------------------------------------------------------------------ *)

let ex8 = Loopart.Programs.example8 ~n:60 ()
let ex2 = Loopart.Programs.example2 ()

let test_cost_classes () =
  let cost = Cost.of_nest ex8 in
  check "two classes (A and B)" 2 (List.length cost.Cost.classes);
  Alcotest.(check string)
    "objective polynomial" "2*x0*x1*x2 + 2*x1*x2 + 3*x0*x2 + 4*x0*x1"
    (Mpoly.to_string cost.Cost.objective);
  Alcotest.(check string)
    "traffic polynomial" "2*x1*x2 + 3*x0*x2 + 4*x0*x1"
    (Mpoly.to_string cost.Cost.total_traffic)

let test_cost_misses_per_tile () =
  let cost = Cost.of_nest ex2 in
  check "column tile misses (paper: 104 + 100)" 204
    (Cost.misses_per_tile cost (Tile.rect [| 100; 1 |]));
  check "square tile misses (paper: 140 + 100)" 240
    (Cost.misses_per_tile cost (Tile.rect [| 10; 10 |]));
  check "column traffic" 4
    (Cost.traffic_per_tile cost (Tile.rect [| 100; 1 |]))

let test_cost_sync_weight () =
  let mm = Loopart.Programs.matmul ~n:8 () in
  let cost = Cost.of_nest mm in
  let c_class =
    List.find
      (fun c -> c.Cost.cls.Footprint.Uniform.array_name = "C")
      cost.Cost.classes
  in
  check "accumulate class weighted" Cost.sync_cost_factor
    c_class.Cost.sync_weight

let test_cost_line_adjusted () =
  (* relax_inplace has identity G: the contiguous loop dim is j (last
     data dimension).  Lines of 8 divide the j-dependence. *)
  let cost = Cost.of_nest (Loopart.Programs.relax_inplace ~n:33 ~steps:1 ()) in
  let plain = cost.Cost.objective in
  let adjusted = Cost.line_adjusted_objective cost ~line_size:8 in
  checkb "line_size 1 is identity" true
    (Mpoly.equal (Cost.line_adjusted_objective cost ~line_size:1) plain);
  (* At tile 16x16: plain counts elements, adjusted counts lines. *)
  let at poly x = Mpoly.eval_float poly [| float_of_int x; 16.0 |] in
  checkb "lines cheaper than elements" true (at adjusted 16 < at plain 16);
  (* Wide lines make elongating along j cheaper than elongating along i:
     adjusted cost at 8x32 beats 32x8. *)
  let at2 poly (x, y) =
    Mpoly.eval_float poly [| float_of_int x; float_of_int y |]
  in
  checkb "prefers contiguous elongation" true
    (at2 adjusted (8, 32) < at2 adjusted (32, 8))

(* ------------------------------------------------------------------ *)
(* Rectangular optimizer                                               *)
(* ------------------------------------------------------------------ *)

let test_example8_ratio () =
  let cost = Cost.of_nest ex8 in
  (match Rectangular.aspect_ratio cost with
  | None -> Alcotest.fail "closed form applies"
  | Some cs ->
      Alcotest.(check string) "2:3:4" "2, 3, 4"
        (String.concat ", " (List.map Rat.to_string (Array.to_list cs))));
  (* The continuous optimum also lands on 2:3:4. *)
  let x =
    Rectangular.continuous_optimum cost
      ~volume:(60.0 *. 60.0 *. 60.0 /. 8.0)
      ~extents:[| 60; 60; 60 |]
  in
  Alcotest.(check (float 0.05)) "x1/x0 = 3/2" 1.5 (x.(1) /. x.(0));
  Alcotest.(check (float 0.05)) "x2/x0 = 2" 2.0 (x.(2) /. x.(0))

let test_example2_partition () =
  let cost = Cost.of_nest ex2 in
  let r = Rectangular.optimize cost ~nprocs:100 in
  Alcotest.(check (array int)) "column tiles win" [| 100; 1 |] r.Rectangular.sizes;
  check "predicted misses 204" 204 r.Rectangular.predicted_misses_per_tile

let test_example10_optimum () =
  let cost = Cost.of_nest (Loopart.Programs.example10 ~n:60 ()) in
  (* Objective (beyond the fixed volume terms): 2 x0 + 3 x1; with
     x0 x1 = V the optimum satisfies 2 x0 = 3 x1. *)
  let x =
    Rectangular.continuous_optimum cost ~volume:360.0 ~extents:[| 60; 60 |]
  in
  Alcotest.(check (float 0.05))
    "2(Li+1) = 3(Lj+1)" 1.0
    (2.0 *. x.(0) /. (3.0 *. x.(1)))

let test_example9_optimum () =
  (* NOTE: the paper's text prints 4 L11 = 6 L22 here, but its own
     Theorem 4 arithmetic (and exhaustive enumeration, see
     EXPERIMENTS.md) gives traffic 4 x0 + 4 x1, i.e. square tiles. *)
  let cost = Cost.of_nest (Loopart.Programs.example9 ~n:60 ()) in
  let x =
    Rectangular.continuous_optimum cost ~volume:360.0 ~extents:[| 60; 60 |]
  in
  Alcotest.(check (float 0.05)) "square optimum" 1.0 (x.(0) /. x.(1))

let test_matmul_keeps_reduction_whole () =
  (* The writer multiplier makes splitting the k (reduction) dimension
     visibly expensive: the chosen grid must not split it. *)
  let cost = Cost.of_nest (Loopart.Programs.matmul ~n:24 ()) in
  let r = Rectangular.optimize cost ~nprocs:16 in
  check "k unsplit" 1 r.Rectangular.grid.(2);
  check "square blocks" r.Rectangular.sizes.(0) r.Rectangular.sizes.(1);
  (* And the simulator confirms: no coherence at all. *)
  let sched =
    Codegen.make (Loopart.Programs.matmul ~n:24 ()) r.Rectangular.tile
      ~nprocs:16
  in
  let sim = Machine.Sim.run sched Machine.Sim.default in
  check "zero coherence" 0 sim.Machine.Sim.stats.Machine.Stats.coherence_misses

let test_grid_feasibility () =
  let cost = Cost.of_nest ex8 in
  let r = Rectangular.optimize cost ~nprocs:8 in
  check "grid covers processors" 8
    (Array.fold_left ( * ) 1 r.Rectangular.grid);
  Array.iteri
    (fun k p ->
      checkb "tile sizes cover extents" true
        (p * r.Rectangular.sizes.(k) >= 60))
    r.Rectangular.grid;
  checkb "too many processors rejected" true
    (try
       ignore (Rectangular.optimize (Cost.of_nest ex2) ~nprocs:1_000_003);
       false
     with Invalid_argument _ -> true)

let test_optimizer_beats_naive () =
  (* The chosen tile should never be worse than trivial row/column
     partitions. *)
  List.iter
    (fun (name, nest, nprocs) ->
      let cost = Cost.of_nest nest in
      let r = Rectangular.optimize cost ~nprocs in
      let chosen = Cost.misses_per_tile cost r.Rectangular.tile in
      let extents = Nest.extents nest in
      let l = Array.length extents in
      List.iter
        (fun k ->
          let sizes =
            Array.mapi
              (fun k' n ->
                if k' = k then max 1 (Int_math.ceil_div n nprocs) else n)
              extents
          in
          if
            Array.for_all2
              (fun s n -> s <= n)
              sizes extents
            && Array.fold_left ( * ) 1
                 (Array.mapi
                    (fun k' n -> Int_math.ceil_div n sizes.(k'))
                    extents)
               >= nprocs
          then
            checkb
              (Printf.sprintf "%s: chosen <= slab along dim %d" name k)
              true
              (chosen <= Cost.misses_per_tile cost (Tile.rect sizes)))
        (List.init l Fun.id))
    [
      ("example2", ex2, 100);
      ("example8", ex8, 8);
      ("example9", Loopart.Programs.example9 ~n:60 (), 36);
    ]

(* ------------------------------------------------------------------ *)
(* Parallelepiped optimizer                                            *)
(* ------------------------------------------------------------------ *)

(* The objective as it was before it was compiled: every class reduced
   on every call, then Theorem 2 divided by the lattice index. *)
let reference_objective cost l =
  let n = Nest.nesting cost.Cost.nest in
  try
    List.fold_left
      (fun acc (c : Cost.class_cost) ->
        let g = c.Cost.cls.Footprint.Uniform.g in
        if Imat.rank g < n then raise (Footprint.Size.Unsupported "rank");
        let spread = Footprint.Uniform.spread c.Cost.cls in
        let red = Footprint.Size.reduce ~g ~spread in
        let idx = abs (Imat.det red.Footprint.Size.g_reduced) in
        let v =
          Footprint.Size.pped_cumulative_float ~l ~g ~spread
          /. float_of_int idx
        in
        acc +. (float_of_int c.Cost.sync_weight *. v))
      0.0 cost.Cost.classes
  with Footprint.Size.Unsupported _ -> infinity

(* The identity and a few fixed skewed and dense L's, with inexact
   entries so that a change in the order of the float operations shows
   in the low bits. *)
let sample_ls n =
  List.map
    (fun f -> Array.init n (fun i -> Array.init n (f i)))
    [
      (fun i j -> if i = j then 1.0 else 0.0);
      (fun i j -> if i = j then 8.0 else if j = i + 1 then 1.0 /. 3.0 else 0.0);
      (fun i j -> if i = j then 4.0 +. sqrt 2.0 else if i > j then -2.2 else 0.0);
      (fun i j ->
        ((float_of_int (((i * 7) + (j * 3)) mod 5) -. 1.5) /. 7.0)
        +. if i = j then 10.3 else 0.0);
    ]

let test_skewed_example3 () =
  (* Example 3: parallelogram tiles along (1,3) beat rectangles.  The
     tile at n=512 on 2 processors (the one perfbench's example3-pped
     runs) is pinned, so that a change in the search shows up here. *)
  List.iter
    (fun (n, nprocs, pinned) ->
      let cost = Cost.of_nest (Loopart.Programs.example3 ~n ()) in
      match Skewed.optimize cost ~nprocs with
      | None -> Alcotest.fail "engine applies to example 3"
      | Some r ->
          checkb "improves on rectangular" true r.Skewed.improves_on_rect;
          checkb "continuous cost below rect cost" true
            (r.Skewed.continuous_cost < r.Skewed.rect_cost);
          Option.iter
            (Alcotest.(check (list (list int))) "L"
               (List.init 2 (fun i ->
                    List.init 2 (fun j -> Imat.get r.Skewed.l i j))))
            pinned)
    [ (100, 10, None); (512, 2, Some [ [ 256; 0 ]; [ 171; 512 ] ]) ]

let test_skewed_unsupported () =
  (* Every class with rank(G) < nesting makes the engine decline, never
     raise: matmul's projections, a constant reference (zero G), a
     projection R[i], and diag_accumulate's H[i+j], whose reduced G is
     not square. *)
  let open Dsl in
  let i = var 0 and j = var 1 in
  let two body = nest ~name:"t" [ doall "i" 1 16; doall "j" 1 16 ] body in
  List.iter
    (fun (name, nest) ->
      let cost = Cost.of_nest nest in
      checkb (name ^ ": returns None") true
        (Skewed.optimize cost ~nprocs:4 = None);
      checkb (name ^ ": infinite objective") true
        (Skewed.objective cost (List.hd (sample_ls (Nest.nesting nest)))
        = infinity))
    [
      ("matmul", Loopart.Programs.matmul ~n:8 ());
      ("constant", two [ write "A" [ i; j ]; read "S" [ int 0 ] ]);
      ("projection", two [ write "A" [ i; j ]; read "R" [ i ] ]);
      ("diag_accumulate", Loopart.Programs.diag_accumulate ~n:16 ());
    ]

let test_skewed_singular_rounding () =
  (* The engine applies (every G has full rank, the objective is finite)
     but a quarter of a one-point space rounds to a singular integer L:
     declined, not raised. *)
  let nest =
    Parse.nest_of_string ~name:"point"
      "doall i = 1 to 1\ndoall j = 1 to 1\nA[i,j] = B[i,j] + B[i+1,j]\n"
  in
  let cost = Cost.of_nest nest in
  checkb "finite objective" true
    (Float.is_finite (Skewed.objective cost (List.hd (sample_ls 2))));
  checkb "returns None" true (Skewed.optimize cost ~nprocs:4 = None)

let test_skewed_volume_constraint () =
  let cost = Cost.of_nest (Loopart.Programs.example3 ~n:40 ()) in
  match Skewed.optimize cost ~nprocs:8 with
  | None -> Alcotest.fail "engine applies"
  | Some r ->
      let v = Rat.to_float (Tile.volume r.Skewed.tile) in
      let target = 40.0 *. 40.0 /. 8.0 in
      checkb "volume within 25% of target" true
        (abs_float (v -. target) /. target < 0.25)

let test_skewed_compiled_objective () =
  let accepted = ref 0 in
  List.iter
    (fun (name, nest) ->
      let cost = Cost.of_nest nest in
      List.iteri
        (fun k l ->
          let want = reference_objective cost l in
          if want <> infinity then incr accepted;
          Alcotest.(check int64)
            (Printf.sprintf "%s, L #%d" name k)
            (Int64.bits_of_float want)
            (Int64.bits_of_float (Skewed.objective cost l)))
        (sample_ls (Nest.nesting nest)))
    Loopart.Programs.all;
  check "accepted (nest, L) pairs: all but matmul and diag_accumulate"
    (4 * 13) !accepted

(* The search evaluates Theorem 2 by Cramer's rule, not determinant by
   determinant: its value at the continuous optimum must still be the
   reference objective there, times the box-penalty factor, on every
   gallery nest the engine accepts and on generated nests whose reduced
   G has |det| > 1, where u = a G1^-1 is not integral. *)
let test_skewed_search_value () =
  let box_factor cost l =
    let extents = Nest.extents cost.Cost.nest in
    let pen = ref 0.0 in
    Array.iteri
      (fun k e ->
        let bbox =
          Array.fold_left (fun acc row -> acc +. abs_float row.(k)) 0.0 l
        in
        let ratio = bbox /. float_of_int e in
        if ratio > 1.0 then pen := !pen +. ((ratio -. 1.0) ** 2.0))
      extents;
    1.0 +. (100.0 *. !pen)
  in
  let check_value name cost nprocs =
    match Skewed.optimize cost ~nprocs with
    | None -> false
    | Some r ->
        let l = r.Skewed.continuous_l in
        let want = reference_objective cost l *. box_factor cost l in
        let got = r.Skewed.continuous_cost in
        if abs_float (got -. want) > 1e-9 *. abs_float want then
          Alcotest.failf "%s, P=%d: search value %.17g, Theorem 2 %.17g" name
            nprocs got want;
        true
  in
  let accepted = ref 0 in
  List.iter
    (fun (name, nest) ->
      let cost = Cost.of_nest nest in
      List.iter
        (fun nprocs -> if check_value name cost nprocs then incr accepted)
        [ 2; 3; 4; 8; 10; 16 ])
    Loopart.Programs.all;
  check "accepted (nest, P) pairs: all but matmul and diag_accumulate"
    (13 * 6) !accepted;
  let lattice = ref 0 in
  for id = 0 to 299 do
    let c = Proptest.Gen.generate ~seed:42 ~id in
    let cost = Cost.of_nest c.Proptest.Gen.nest in
    let non_unimodular (cc : Cost.class_cost) =
      let g = cc.Cost.cls.Footprint.Uniform.g in
      Imat.rank g = Nest.nesting c.Proptest.Gen.nest
      &&
      let spread = Footprint.Uniform.spread cc.Cost.cls in
      let red = Footprint.Size.reduce ~g ~spread in
      abs (Imat.det red.Footprint.Size.g_reduced) > 1
      && not (Ivec.is_zero red.Footprint.Size.spread_reduced)
    in
    if
      List.exists non_unimodular cost.Cost.classes
      && check_value (Printf.sprintf "Gen seed 42 case %d" id) cost
           c.Proptest.Gen.nprocs
    then incr lattice
  done;
  checkb "at least 4 generated nests with |det G1| > 1" true (!lattice >= 4)

(* ------------------------------------------------------------------ *)
(* Codegen                                                             *)
(* ------------------------------------------------------------------ *)

let test_codegen_rect () =
  let sched = Codegen.make ex2 (Tile.rect [| 100; 1 |]) ~nprocs:100 in
  check "tiles" 100 (Codegen.num_tiles sched);
  check "procs" 100 (Array.length (per_proc sched));
  Array.iter (fun n -> check "balanced" 100 n)
    (Scheduling.loads ~nprocs:100 (tiled sched));
  (* Every iteration appears exactly once. *)
  check "covers space" (Nest.iterations ex2)
    (Scheduling.total (tiled sched));
  let mn, mx, imb = Codegen.load_balance sched in
  check "min" 100 mn;
  check "max" 100 mx;
  Alcotest.(check (float 1e-9)) "imbalance" 1.0 imb

let test_codegen_ranges () =
  let sched = Codegen.make ex2 (Tile.rect [| 30; 40 |]) ~nprocs:12 in
  let tiles = Codegen.tiles sched in
  check "4x3 tiles" 12 (Array.length tiles);
  (* One box per tile, clipped to the space. *)
  Array.iter
    (fun (_, boxes) ->
      check "one box" 1 (Array.length boxes);
      Array.iteri
        (fun k (lo, hi) ->
          let blo, bhi = (Nest.bounds ex2).(k) in
          checkb "clipped" true (lo >= blo && hi <= bhi && lo <= hi))
        boxes.(0))
    tiles

(* Parallelepiped tiles on clipped spaces with non-zero origins: both
   signs of det L, negative entries, and a 3-D tile. *)
let pped_cases =
  let open Dsl in
  let i = var 0 and j = var 1 and k = var 2 in
  let plane =
    nest ~name:"plane" [ doall "i" 3 21; doall "j" (-2) 13 ]
      [ write "A" [ i; j ]; read "B" [ i + j; j ] ]
  in
  let cube =
    nest ~name:"cube" [ doall "i" 1 8; doall "j" (-3) 5; doall "k" 2 11 ]
      [ write "A" [ i; j; k ] ]
  in
  [
    (plane, [ [ 5; 0 ]; [ 2; 5 ] ]);
    (plane, [ [ 2; 1 ]; [ -1; 2 ] ]);
    (plane, [ [ 1; 2 ]; [ 3; -1 ] ]);
    (cube, [ [ 2; 1; 0 ]; [ -1; 2; 1 ]; [ 0; -1; 3 ] ]);
  ]

let test_codegen_tiles_pped () =
  List.iter
    (fun (nest, rows) ->
      let sched = Codegen.make nest (Tile.pped (Imat.of_rows rows)) ~nprocs:3 in
      let name = Imat.to_string (Imat.of_rows rows) in
      let id = Codegen.tile_id sched and own = Codegen.owner sched in
      let bounds = Nest.bounds nest in
      let d = Array.length bounds in
      let inside p =
        Array.for_all2 (fun v (lo, hi) -> lo <= v && v <= hi) p bounds
      in
      let tiles = Codegen.tiles sched in
      let seen = Hashtbl.create 256 and ids = Hashtbl.create 16 in
      Array.iter
        (fun (owner, boxes) ->
          let tile = id (Array.map fst boxes.(0)) in
          checkb (name ^ ": tile named once") false (Hashtbl.mem ids tile);
          Hashtbl.replace ids tile ();
          Array.iteri
            (fun b box ->
              (* A run along the innermost axis, after its predecessor. *)
              for k = 0 to d - 2 do
                checkb (name ^ ": outer axes fixed") true
                  (fst box.(k) = snd box.(k))
              done;
              if b > 0 then
                checkb (name ^ ": lexicographic") true
                  (compare (Array.map fst boxes.(b - 1)) (Array.map fst box)
                  < 0);
              Codegen.iter_box box (fun p ->
                  let key = Array.to_list p in
                  checkb (name ^ ": point in one box") false
                    (Hashtbl.mem seen key);
                  Hashtbl.replace seen key ();
                  checkb (name ^ ": inside the space") true (inside p);
                  Alcotest.(check (array int)) (name ^ ": tile_id") tile (id p);
                  check (name ^ ": owner") owner (own p));
              (* Maximal: each neighbour past a run end is outside the
                 space or in another tile. *)
              let lo, hi = box.(d - 1) in
              List.iter
                (fun x ->
                  let p = Array.map fst box in
                  p.(d - 1) <- x;
                  checkb (name ^ ": maximal run") true
                    ((not (inside p)) || id p <> tile))
                [ lo - 1; hi + 1 ])
            boxes)
        tiles;
      check (name ^ ": every point covered") (Nest.iterations nest)
        (Hashtbl.length seen);
      let distinct = Hashtbl.create 16 in
      Codegen.iter_box bounds (fun p ->
          Hashtbl.replace distinct (id p) ());
      check (name ^ ": one entry per tile") (Hashtbl.length distinct)
        (Array.length tiles);
      check (name ^ ": num_tiles") (Codegen.num_tiles sched)
        (Array.length tiles))
    pped_cases

let test_codegen_tiles_alloc () =
  (* Paper Example 3 at n = 512 under its parallelepiped tile for two
     processors: 262,144 iterations in 3 tiles, built without touching
     each iteration.  The same holds for each processor's iterations and
     its load, there and for stencil5 at n = 512 under rectangles. *)
  let nest = Loopart.Programs.example3 ~n:512 () in
  let tile = Tile.pped (Imat.of_rows [ [ 256; 0 ]; [ 171; 512 ] ]) in
  let sched = Codegen.make nest tile ~nprocs:2 in
  let allocated f =
    (* Empty the minor heap first, so no earlier data is promoted (and
       counted) inside the measured window. *)
    Gc.minor ();
    let before = Gc.allocated_bytes () in
    let r = f () in
    let bytes = Gc.allocated_bytes () -. before in
    checkb (Printf.sprintf "allocates %.0f bytes, under 1 MB" bytes) true
      (bytes < 1048576.0);
    r
  in
  let tiles = allocated (fun () -> Codegen.tiles sched) in
  check "3 tiles" 3 (Array.length tiles);
  check "every iteration"
    (Nest.iterations nest)
    (Array.fold_left
       (fun acc (_, boxes) ->
         Array.fold_left (fun a b -> a + Codegen.box_volume b) acc boxes)
       0 tiles);
  let stencil =
    Codegen.make
      (Loopart.Programs.stencil5 ~n:512 ~steps:1 ())
      (Tile.rect [| 512; 256 |]) ~nprocs:2
  in
  List.iter
    (fun (sched, boxes) ->
      let a = allocated (fun () -> per_proc sched) in
      check "boxes per processor, summed" boxes
        (Array.fold_left (fun acc b -> acc + Array.length b) 0 a);
      check "every iteration once" (Nest.iterations sched.Codegen.nest)
        (Scheduling.total (tiled sched));
      ignore (allocated (fun () -> Codegen.load_balance sched)))
    [ (sched, 854); (stencil, 2) ]

let test_codegen_pped_partition () =
  let nest =
    let open Dsl in
    let i = var 0 and j = var 1 in
    nest ~name:"small" [ doall "i" 0 9; doall "j" 0 9 ]
      [ write "A" [ i; j ]; read "B" [ i + j; i - j ] ]
  in
  let sched =
    Codegen.make nest (Tile.pped (Imat.of_rows [ [ 5; 0 ]; [ 2; 5 ] ])) ~nprocs:4
  in
  check "pped covers space exactly once" 100 (Scheduling.total (tiled sched))

let test_emit_pseudocode () =
  let sched = Codegen.make ex2 (Tile.rect [| 100; 1 |]) ~nprocs:100 in
  let s = Codegen.emit_pseudocode sched in
  checkb "mentions SPMD" true (String.length s > 0)

(* ------------------------------------------------------------------ *)
(* Data partitioning                                                   *)
(* ------------------------------------------------------------------ *)

let test_aligned_placement () =
  let cost = Cost.of_nest ex2 in
  let sched = Codegen.make ex2 (Tile.rect [| 100; 1 |]) ~nprocs:100 in
  let pl = Data_partition.aligned sched cost in
  let own = Codegen.owner sched in
  (* A[i,j] written by iteration (i,j): its home must be the owner. *)
  let ok = ref true in
  for i = 101 to 140 do
    for j = 1 to 40 do
      if pl.Data_partition.home "A" [| i; j |] <> own [| i; j |] then
        ok := false
    done
  done;
  checkb "A aligned with its writer" true !ok

let test_data_objective () =
  (* Symmetric offsets: a+ = max-min spread, so data and loop ratios
     coincide. *)
  let cost = Cost.of_nest (Loopart.Programs.relax_inplace ~n:33 ~steps:1 ()) in
  let loop_ratio =
    Rectangular.continuous_optimum cost ~volume:256.0 ~extents:[| 32; 32 |]
  in
  let data_ratio = Data_partition.optimal_data_ratio cost ~nprocs:4 in
  Alcotest.(check (float 0.05))
    "ratios agree for symmetric stencils"
    (loop_ratio.(0) /. loop_ratio.(1))
    (data_ratio.(0) /. data_ratio.(1));
  (* Asymmetric many-reference class: a+ exceeds the max-min spread, so
     the data objective dominates the loop objective pointwise. *)
  let nest =
    let open Dsl in
    let i = var 0 and j = var 1 in
    nest ~name:"asym"
      [ doall "i" 1 32; doall "j" 1 32 ]
      [
        write "A" [ i; j ];
        read "A" [ i - int 1; j ];
        read "A" [ i + int 1; j ];
        read "A" [ i + int 2; j ];
        read "A" [ i + int 3; j ];
      ]
  in
  let cost2 = Cost.of_nest nest in
  let dp = Data_partition.data_objective cost2 in
  let at poly = Mpoly.eval_float poly [| 8.0; 8.0 |] in
  checkb "a+ objective >= max-min objective" true
    (at dp >= at cost2.Cost.objective)

let test_round_robin_and_block () =
  let pl = Data_partition.round_robin ~nprocs:7 in
  let h = pl.Data_partition.home "A" [| 3; 4 |] in
  checkb "stable" true (h = pl.Data_partition.home "A" [| 3; 4 |]);
  checkb "in range" true (h >= 0 && h < 7);
  let br = Data_partition.block_row ~nprocs:4 ~rows:100 in
  check "row 0 -> proc 0" 0 (br.Data_partition.home "A" [| 0; 5 |]);
  check "row 99 -> proc 3" 3 (br.Data_partition.home "A" [| 99; 5 |])

(* ------------------------------------------------------------------ *)
(* Capacity blocking (Section 2.2)                                     *)
(* ------------------------------------------------------------------ *)

let test_capacity_subtile () =
  let cost = Cost.of_nest (Loopart.Programs.matmul ~n:24 ()) in
  let tile = Tile.rect [| 6; 6; 24 |] in
  checkb "does not fit in 128" false (Capacity.fits cost tile ~capacity:128);
  let sub = Capacity.subtile cost tile ~capacity:128 in
  checkb "subtile fits" true (Capacity.fits cost sub ~capacity:128);
  checkb "already-fitting tile unchanged" true
    (Tile.equal tile (Capacity.subtile cost tile ~capacity:10_000));
  checkb "impossible capacity rejected" true
    (try
       ignore (Capacity.subtile cost tile ~capacity:1);
       false
     with Invalid_argument _ -> true)

let test_capacity_blocked_order () =
  let nest = Loopart.Programs.matmul ~n:12 () in
  let cost = Cost.of_nest nest in
  let tile = (Rectangular.optimize cost ~nprocs:4).Rectangular.tile in
  let sched = Codegen.make nest tile ~nprocs:4 in
  let sub = Capacity.subtile cost tile ~capacity:64 in
  let blocked = Capacity.blocked_iterations sched ~subtile:sub in
  (* Same iterations, tile by tile, each tile's ordered by (subtile cell
     anchored at the tile's corner, point). *)
  let plain = per_proc sched in
  let cell = Tile.tile_coords sub in
  let want = Array.make 4 [] in
  Array.iter
    (fun (o, boxes) ->
      let corner = Array.map fst boxes.(0) in
      let key i = (cell (Ivec.sub i corner), i) in
      want.(o) <-
        want.(o)
        @ List.sort (fun a b -> compare (key a) (key b)) (points_of boxes))
    (Codegen.tiles sched);
  Array.iteri
    (fun p boxes ->
      let l = points_of boxes in
      check "same count" (List.length want.(p)) (List.length l);
      checkb "same set" true
        (List.sort compare l = List.sort compare (points_of plain.(p)));
      checkb "tile by tile, subtile by subtile, lexicographic within" true
        (l = want.(p)))
    (Scheduling.per_proc ~nprocs:4 blocked);
  (* Blocking reduces replacement misses on a small cache. *)
  let run work =
    (Machine.Sim.run_work nest ~nprocs:4 work
       {
         Machine.Sim.default with
         Machine.Sim.geometry = Machine.Cache.Finite { sets = 16; ways = 4 };
       })
      .Machine.Sim.stats.Machine.Stats.replacement_misses
  in
  checkb "blocked replaces less" true (run blocked <= run (tiled sched))

let test_capacity_whole_subtiles () =
  (* E19's setup: 1-based matmul 24^3 on 16 processors, one 6x6x24 tile
     each, blocked for a 128-element cache into 6x6x6 subtiles.  The
     sizes divide, so each tile must yield exactly its four subtiles,
     one after another, each walked lexicographically. *)
  let nest = Loopart.Programs.matmul ~n:24 () in
  let cost = Cost.of_nest nest in
  let tile = (Rectangular.optimize cost ~nprocs:16).Rectangular.tile in
  let sched = Codegen.make nest tile ~nprocs:16 in
  let sub = Capacity.subtile cost tile ~capacity:128 in
  checkb "6x6x6 subtile" true (Tile.equal sub (Tile.rect [| 6; 6; 6 |]));
  let blocked =
    Scheduling.per_proc ~nprocs:16
      (Capacity.blocked_iterations sched ~subtile:sub)
  in
  Array.iter
    (fun (o, boxes) ->
      check "one tile per processor" 1 (Array.length boxes);
      let tile_box = boxes.(0) in
      let subtiles =
        points_of
          [| Array.map (fun (lo, hi) -> (0, ((hi - lo + 1) / 6) - 1)) tile_box |]
        |> List.map (fun c ->
               Array.mapi
                 (fun k (lo, _) -> (lo + (6 * c.(k)), lo + (6 * c.(k)) + 5))
                 tile_box)
      in
      check "four subtiles" 4 (List.length subtiles);
      checkb "exactly its whole subtiles, one after another" true
        (points_of blocked.(o)
        = List.concat_map (fun b -> points_of [| b |]) subtiles))
    (Codegen.tiles sched)

(* ------------------------------------------------------------------ *)
(* Run-time scheduling baselines                                       *)
(* ------------------------------------------------------------------ *)

let test_scheduling_coverage () =
  let nest = Loopart.Programs.relax_inplace ~n:17 ~steps:1 () in
  let n_iters = Nest.iterations nest in
  List.iter
    (fun (name, work) ->
      check (name ^ " covers the space") n_iters (Scheduling.total work);
      check (name ^ " deals to 4 procs") n_iters
        (Array.fold_left ( + ) 0 (Scheduling.loads ~nprocs:4 work));
      check (name ^ " uses 4 procs") 4
        (Array.length (Scheduling.per_proc ~nprocs:4 work)))
    [
      ("cyclic", cyclic nest);
      ("block-cyclic", dynamic nest (fun ~remaining:_ -> 5));
      ("gss", gss nest ~nprocs:4);
    ]

let test_scheduling_cyclic_balance () =
  let nest = Loopart.Programs.relax_inplace ~n:17 ~steps:1 () in
  let loads = Scheduling.loads ~nprocs:4 (cyclic nest) in
  check "cyclic is perfectly balanced" 64 (Array.fold_left max 0 loads)

let test_scheduling_gss_decreasing () =
  (* GSS chunk sizes decrease: first grab is ceil(R/P). *)
  let nest = Loopart.Programs.relax_inplace ~n:17 ~steps:1 () in
  (* 256 iterations: first chunk 64 goes to proc 0; its next grab is much
     smaller, so proc 0 holds more than a fair share overall but not all. *)
  let load0 = (Scheduling.loads ~nprocs:4 (gss nest ~nprocs:4)).(0) in
  checkb "first processor gets the big first chunk" true (load0 >= 64);
  checkb "but not everything" true (load0 < 256)

let test_scheduling_locality_ordering () =
  (* Tiles beat GSS beats cyclic on total footprint for a stencil. *)
  let nest = Loopart.Programs.relax_inplace ~n:33 ~steps:2 () in
  let cost = Cost.of_nest nest in
  let tiles =
    tiled
      (Codegen.make nest (Rectangular.optimize cost ~nprocs:4).Rectangular.tile
         ~nprocs:4)
  in
  let footprint work =
    let r = Machine.Sim.run_work nest ~nprocs:4 work Machine.Sim.default in
    Array.fold_left ( + ) 0 (Machine.Sim.footprints r)
  in
  let f_tiled = footprint tiles in
  let f_gss = footprint (gss nest ~nprocs:4) in
  let f_cyc = footprint (cyclic nest) in
  checkb "tiles <= gss" true (f_tiled <= f_gss);
  checkb "gss < cyclic" true (f_gss < f_cyc)

(* Property: every run-time policy's work, decoded by [per_proc],
   enumerates each iteration exactly once - the right total AND no
   duplicates across processors - and each processor runs its chunks of
   the lexicographic order in it. *)
let prop_scheduling_exact_cover =
  QCheck2.Test.make ~name:"run-time policies cover each iteration once"
    ~count:40
    QCheck2.Gen.(triple (int_range 6 20) (int_range 1 7) (int_range 1 9))
    (fun (n, nprocs, chunk) ->
      let nest = Loopart.Programs.relax_inplace ~n ~steps:1 () in
      let lex = Array.of_list (lex_points nest) in
      (* The positional deal: chunk after chunk of [lex], round-robin. *)
      let deal chunk_of =
        let out = Array.make nprocs [] in
        let pos = ref 0 and p = ref 0 in
        while !pos < Array.length lex do
          let left = Array.length lex - !pos in
          let c = min (chunk_of left) left in
          for k = !pos to !pos + c - 1 do
            out.(!p) <- lex.(k) :: out.(!p)
          done;
          pos := !pos + c;
          p := (!p + 1) mod nprocs
        done;
        Array.map List.rev out
      in
      let exact_cover work chunk_of =
        let a = Scheduling.per_proc ~nprocs work in
        let seen = Hashtbl.create 997 in
        let dup = ref false in
        Array.iter
          (fun boxes ->
            Codegen.iter_boxes boxes (fun i ->
                let key = Array.to_list i in
                if Hashtbl.mem seen key then dup := true
                else Hashtbl.replace seen key ()))
          a;
        (not !dup)
        && Hashtbl.length seen = Nest.iterations nest
        && Scheduling.total work = Nest.iterations nest
        && Array.length a = nprocs
        && Array.map points_of a = deal chunk_of
      in
      exact_cover (cyclic nest) (fun _ -> 1)
      && exact_cover (dynamic nest (fun ~remaining:_ -> chunk)) (fun _ -> chunk)
      && exact_cover (gss nest ~nprocs) (fun r -> Int_math.ceil_div r nprocs))

let test_of_schedule_matches_owner () =
  (* The tiled assignment is each processor's tiles, in tile-number
     order, and every point it holds is the processor's by the owner
     map.  Under rectangles (one clipped, off a non-zero origin), a
     parallelepiped, an [L] with [det L < 0] and a 3-D [L]. *)
  let plane = fst (List.nth pped_cases 0) in
  let cube = fst (List.nth pped_cases 3) in
  List.iter
    (fun (nest, tile, nprocs) ->
      let name = Tile.to_string tile in
      let sched = Codegen.make nest tile ~nprocs in
      let a = per_proc sched in
      let own = Codegen.owner sched and id = Codegen.tile_id sched in
      let tiles = Codegen.tiles sched in
      Array.iteri
        (fun p boxes ->
          let mine =
            List.filter (fun (o, _) -> o = p) (Array.to_list tiles)
          in
          checkb (name ^ ": the owner's tiles, one after another") true
            (boxes = Array.concat (List.map snd mine));
          let ids =
            List.map (fun (_, tb) -> id (Array.map fst tb.(0))) mine
          in
          checkb (name ^ ": in tile-number order") true
            (List.sort_uniq compare ids = ids);
          List.iter2
            (fun (_, tb) t ->
              checkb (name ^ ": a tile's points share its number") true
                (List.for_all (fun i -> id i = t) (points_of tb)))
            mine ids;
          checkb (name ^ ": every point is the processor's") true
            (List.for_all (fun i -> own i = p) (points_of boxes)))
        a;
      check (name ^ ": covers the space") (Nest.iterations nest)
        (Scheduling.total (tiled sched));
      checkb (name ^ ": each point once") true
        (List.sort compare (List.concat_map points_of (Array.to_list a))
        = lex_points nest))
    [
      (Loopart.Programs.example2 ~n:30 (), Tile.rect [| 7; 5 |], 5);
      (plane, Tile.rect [| 4; 6 |], 3);
      (plane, Tile.pped (Imat.of_rows [ [ 5; 0 ]; [ 2; 5 ] ]), 3);
      (plane, Tile.pped (Imat.of_rows [ [ 1; 2 ]; [ 3; -1 ] ]), 3);
      ( cube,
        Tile.pped (Imat.of_rows [ [ 2; 1; 0 ]; [ -1; 2; 1 ]; [ 0; -1; 3 ] ]),
        4 );
    ]

let () =
  Alcotest.run "partition"
    [
      ( "tile",
        [
          Alcotest.test_case "rect" `Quick test_tile_rect;
          Alcotest.test_case "pped" `Quick test_tile_pped;
          Alcotest.test_case "pped tiles the plane" `Quick
            test_tile_pped_tiles_plane;
          Alcotest.test_case "negative determinant" `Quick
            test_tile_negative_det;
        ] );
      ( "cost",
        [
          Alcotest.test_case "classes and polynomials" `Quick
            test_cost_classes;
          Alcotest.test_case "misses per tile (example 2)" `Quick
            test_cost_misses_per_tile;
          Alcotest.test_case "sync weighting" `Quick test_cost_sync_weight;
          Alcotest.test_case "line-adjusted objective" `Quick
            test_cost_line_adjusted;
        ] );
      ( "rectangular",
        [
          Alcotest.test_case "example 8 ratio 2:3:4" `Quick
            test_example8_ratio;
          Alcotest.test_case "example 2 partition" `Quick
            test_example2_partition;
          Alcotest.test_case "example 10 optimum" `Quick
            test_example10_optimum;
          Alcotest.test_case "example 9 optimum" `Quick test_example9_optimum;
          Alcotest.test_case "matmul reduction kept whole" `Quick
            test_matmul_keeps_reduction_whole;
          Alcotest.test_case "grid feasibility" `Quick test_grid_feasibility;
          Alcotest.test_case "beats naive slabs" `Quick
            test_optimizer_beats_naive;
        ] );
      ( "skewed",
        [
          Alcotest.test_case "example 3 parallelogram" `Quick
            test_skewed_example3;
          Alcotest.test_case "declines projections" `Quick
            test_skewed_unsupported;
          Alcotest.test_case "declines a singular rounding" `Quick
            test_skewed_singular_rounding;
          Alcotest.test_case "volume constraint" `Quick
            test_skewed_volume_constraint;
          Alcotest.test_case "compiled objective" `Quick
            test_skewed_compiled_objective;
          Alcotest.test_case "search value is Theorem 2" `Quick
            test_skewed_search_value;
        ] );
      ( "codegen",
        [
          Alcotest.test_case "rect schedule" `Quick test_codegen_rect;
          Alcotest.test_case "tile ranges" `Quick test_codegen_ranges;
          Alcotest.test_case "pped schedule" `Quick
            test_codegen_pped_partition;
          Alcotest.test_case "pseudocode" `Quick test_emit_pseudocode;
          Alcotest.test_case "pped tiles are maximal runs" `Quick
            test_codegen_tiles_pped;
          Alcotest.test_case "pped tiles allocate per run" `Quick
            test_codegen_tiles_alloc;
        ] );
      ( "capacity",
        [
          Alcotest.test_case "subtile" `Quick test_capacity_subtile;
          Alcotest.test_case "whole subtiles" `Quick
            test_capacity_whole_subtiles;
          Alcotest.test_case "blocked order" `Quick
            test_capacity_blocked_order;
        ] );
      ( "scheduling",
        [
          Alcotest.test_case "coverage" `Quick test_scheduling_coverage;
          Alcotest.test_case "cyclic balance" `Quick
            test_scheduling_cyclic_balance;
          Alcotest.test_case "gss chunks" `Quick test_scheduling_gss_decreasing;
          Alcotest.test_case "locality ordering" `Quick
            test_scheduling_locality_ordering;
          Alcotest.test_case "of_schedule = owner" `Quick
            test_of_schedule_matches_owner;
          QCheck_alcotest.to_alcotest prop_scheduling_exact_cover;
        ] );
      ( "data placement",
        [
          Alcotest.test_case "aligned" `Quick test_aligned_placement;
          Alcotest.test_case "data objective (footnote 2)" `Quick
            test_data_objective;
          Alcotest.test_case "round robin / block row" `Quick
            test_round_robin_and_block;
        ] );
    ]
