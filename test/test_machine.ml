(* Tests for the cache-coherent multiprocessor substrate: the row-major
   memory map, caches, directory, mesh, and the MSI simulator's agreement
   with the analytical footprint model. *)

open Partition
open Machine

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Cache                                                               *)
(* ------------------------------------------------------------------ *)

let line_state =
  Alcotest.testable
    (fun ppf s ->
      Format.pp_print_string ppf
        (match s with
        | Cache.Never -> "Never"
        | Cache.Shared -> "Shared"
        | Cache.Modified -> "Modified"
        | Cache.Lost_invalidation -> "Lost_invalidation"
        | Cache.Lost_eviction -> "Lost_eviction"))
    ( = )

let check_state = Alcotest.check line_state

let test_infinite_cache () =
  let c = Cache.create Cache.Infinite ~nprocs:1 ~lines:64 in
  check_state "empty" Cache.Never (Cache.state c 0 42);
  checkb "no victim" true (Cache.fill c 0 42 Cache.Shared = None);
  check_state "present" Cache.Shared (Cache.state c 0 42);
  Cache.set_state c 0 42 Cache.Modified;
  check_state "state change" Cache.Modified (Cache.state c 0 42);
  Cache.invalidate c 0 42;
  checkb "gone" false (Cache.resident c 0 42);
  check_state "lost" Cache.Lost_invalidation (Cache.state c 0 42)

let test_finite_cache_lru () =
  (* One set, two ways: the third fill evicts the least recent. *)
  let c =
    Cache.create (Cache.Finite { sets = 1; ways = 2 }) ~nprocs:1 ~lines:4
  in
  checkb "no victim 1" true (Cache.fill c 0 1 Cache.Shared = None);
  checkb "no victim 2" true (Cache.fill c 0 2 Cache.Modified = None);
  (* Touch 1 so 2 becomes LRU. *)
  Cache.touch c 0 1;
  (match Cache.fill c 0 3 Cache.Shared with
  | Some (v, held) ->
      check "evicts 2" 2 v;
      check_state "held dirty" Cache.Modified held
  | None -> Alcotest.fail "expected eviction");
  check_state "2 lost" Cache.Lost_eviction (Cache.state c 0 2);
  checkb "1 survives" true (Cache.resident c 0 1);
  checkb "3 present" true (Cache.resident c 0 3);
  check "occupancy" 2 (Cache.occupancy c 0)

let test_finite_cache_sets () =
  (* Two sets: even and odd lines do not conflict, and each processor's
     sets are its own. *)
  let c =
    Cache.create (Cache.Finite { sets = 2; ways = 1 }) ~nprocs:2 ~lines:6
  in
  ignore (Cache.fill c 0 2 Cache.Shared);
  ignore (Cache.fill c 0 3 Cache.Shared);
  ignore (Cache.fill c 1 4 Cache.Shared);
  checkb "both resident" true (Cache.resident c 0 2 && Cache.resident c 0 3);
  (match Cache.fill c 0 4 Cache.Shared with
  | Some (v, _) -> check "same-set eviction" 2 v
  | None -> Alcotest.fail "expected eviction");
  checkb "other processor keeps 4" true (Cache.resident c 1 4)

(* ------------------------------------------------------------------ *)
(* Line table                                                          *)
(* ------------------------------------------------------------------ *)

(* The MSI protocol on a hand-written sequence.  After each access the
   test checks the line's bytes, the directory view (sharers and owner)
   and which miss class, if any, the access counted. *)
let test_line_table () =
  let nest =
    let open Loopir.Dsl in
    nest ~name:"line" [ doall "i" 0 3 ] [ read "A" [ var 0 ] ]
  in
  let classes (st : Stats.t) =
    [ st.cold_misses; st.coherence_misses; st.replacement_misses ]
  in
  let step m p line ~write cls bytes sharers owner =
    let what =
      Printf.sprintf "P%d %s line %d" p
        (if write then "writes" else "reads")
        line
    in
    let before = classes (Sim.stats m) in
    Sim.access m p line ~write ~sync:false;
    let got =
      match List.map2 ( - ) (classes (Sim.stats m)) before with
      | [ 0; 0; 0 ] -> "hit"
      | [ 1; 0; 0 ] -> "cold"
      | [ 0; 1; 0 ] -> "coherence"
      | [ 0; 0; 1 ] -> "replacement"
      | _ -> "several"
    in
    Alcotest.(check string) (what ^ ": miss class") cls got;
    let c = Sim.cache m in
    Alcotest.(check (list line_state))
      (what ^ ": bytes") bytes
      (List.init (List.length bytes) (fun q -> Cache.state c q line));
    Alcotest.(check (list int)) (what ^ ": sharers") sharers
      (Cache.sharers c line);
    Alcotest.(check (option int)) (what ^ ": owner") owner
      (Cache.owner c line)
  in
  let open Cache in
  let m = Sim.machine nest ~nprocs:3 Sim.default in
  let st = Sim.stats m in
  step m 0 1 ~write:false "cold" [ Shared; Never; Never ] [ 0 ] None;
  step m 2 1 ~write:false "cold" [ Shared; Never; Shared ] [ 0; 2 ] None;
  step m 1 1 ~write:false "cold" [ Shared; Shared; Shared ] [ 0; 1; 2 ] None;
  (* A write upgrade invalidates the two other sharers. *)
  step m 1 1 ~write:true "hit"
    [ Lost_invalidation; Modified; Lost_invalidation ]
    [ 1 ] (Some 1);
  check "upgrade" 1 st.Stats.upgrades;
  check "two invalidations" 2 st.Stats.invalidations;
  (* Reading the remotely dirty line downgrades the owner and writes it
     back. *)
  step m 0 1 ~write:false "coherence"
    [ Shared; Shared; Lost_invalidation ]
    [ 0; 1 ] None;
  check "downgrade writes back" 1 st.Stats.writebacks;
  step m 2 1 ~write:false "coherence" [ Shared; Shared; Shared ] [ 0; 1; 2 ]
    None;
  step m 2 1 ~write:false "hit" [ Shared; Shared; Shared ] [ 0; 1; 2 ] None;
  check "no writeback from clean copies" 1 st.Stats.writebacks;
  (* A finite cache of one line per processor: a second line evicts the
     first, and the re-read is a replacement miss. *)
  let m =
    Sim.machine nest ~nprocs:2
      { Sim.default with Sim.geometry = Finite { sets = 1; ways = 1 } }
  in
  let st = Sim.stats m in
  step m 0 1 ~write:true "cold" [ Modified; Never ] [ 0 ] (Some 0);
  step m 0 2 ~write:false "cold" [ Shared; Never ] [ 0 ] None;
  check_state "evicted" Lost_eviction (state (Sim.cache m) 0 1);
  Alcotest.(check (list int)) "evicted: no sharers" []
    (sharers (Sim.cache m) 1);
  check "dirty eviction writes back" 1 st.Stats.writebacks;
  step m 0 1 ~write:false "replacement" [ Shared; Never ] [ 0 ] None;
  check_state "evicted clean" Lost_eviction (state (Sim.cache m) 0 2);
  check "clean eviction writes nothing back" 1 st.Stats.writebacks;
  check "footprint = cold misses" 2 (Stats.touched st).(0)

(* ------------------------------------------------------------------ *)
(* Mesh                                                                *)
(* ------------------------------------------------------------------ *)

let test_mesh_distance () =
  let m = Mesh.mesh ~nprocs:16 in
  check "self" 0 (Mesh.distance m 5 5);
  (* 4x4 grid: 0 at (0,0), 15 at (3,3). *)
  check "corner to corner" 6 (Mesh.distance m 0 15);
  check "symmetric" (Mesh.distance m 3 12) (Mesh.distance m 12 3);
  let u = Mesh.uniform ~nprocs:16 in
  check "uniform distance" 1 (Mesh.distance u 0 15);
  checkb "is_uniform" true (Mesh.is_uniform u)

let test_mesh_triangle_inequality () =
  let m = Mesh.mesh ~nprocs:12 in
  for a = 0 to 11 do
    for b = 0 to 11 do
      for c = 0 to 11 do
        checkb "triangle" true
          (Mesh.distance m a c <= Mesh.distance m a b + Mesh.distance m b c)
      done
    done
  done

(* ------------------------------------------------------------------ *)
(* Layout                                                              *)
(* ------------------------------------------------------------------ *)

let layout_nest () =
  let open Loopir.Dsl in
  let i = var 0 and j = var 1 in
  nest ~name:"layout"
    [ doall "i" 1 8; doall "j" 1 8 ]
    [ write "A" [ i; j ]; read "B" [ i + j; i - j ] ]

let test_layout_addresses () =
  let l = Layout.of_nest (layout_nest ()) in
  (* Distinct elements -> distinct addresses; row-major adjacency. *)
  let a11 = Layout.address l "A" [| 1; 1 |] in
  let a12 = Layout.address l "A" [| 1; 2 |] in
  let a21 = Layout.address l "A" [| 2; 1 |] in
  check "last dim contiguous" (a11 + 1) a12;
  check "row stride 8" (a11 + 8) a21;
  checkb "arrays disjoint" true
    (Layout.address l "B" [| 2; 0 |] <> a11);
  Alcotest.(check (pair string (list int)))
    "reverse" ("A", [ 1; 2 ])
    (Layout.element_of l a12);
  checkb "outside box rejected" true
    (try
       ignore (Layout.address l "A" [| 0; 0 |]);
       false
     with Invalid_argument _ -> true)

let test_layout_alignment () =
  let l = Layout.of_nest ~line_align:8 (layout_nest ()) in
  (* The lo corner of each array's bounding box is its base address:
     A spans [1,8]x[1,8], B spans [2,16]x[-7,7]. *)
  check "A base aligned" 0 (Layout.address l "A" [| 1; 1 |] mod 8);
  check "B base aligned" 0 (Layout.address l "B" [| 2; -7 |] mod 8)

let test_layout_lines () =
  let l = Layout.of_nest ~line_align:4 (layout_nest ()) in
  let line p = Layout.address l "A" p / 4 in
  check "neighbours share a line" (line [| 1; 1 |]) (line [| 1; 2 |]);
  checkb "distant elements differ" true (line [| 1; 1 |] <> line [| 5; 5 |])

(* The compiled map is the bounds-checked one: for every reference of
   every gallery nest, at every point of its iteration space. *)
let test_layout_compile () =
  List.iter
    (fun (name, nest) ->
      let l = Layout.of_nest nest in
      List.iter
        (fun (r : Loopir.Reference.t) ->
          let { Layout.c; m } = Layout.compile l r in
          Codegen.iter_box (Loopir.Nest.bounds nest) (fun i ->
              let a = ref c in
              Array.iteri (fun k mk -> a := !a + (mk * i.(k))) m;
              let want =
                Layout.address l r.Loopir.Reference.array_name
                  (Loopir.Affine.apply r.Loopir.Reference.index i)
              in
              if !a <> want then
                Alcotest.failf "%s %s at %s: compiled %d, address %d" name
                  r.Loopir.Reference.array_name
                  (Matrixkit.Ivec.to_string i) !a want))
        nest.Loopir.Nest.body)
    Loopart.Programs.all

(* ------------------------------------------------------------------ *)
(* Timing                                                              *)
(* ------------------------------------------------------------------ *)

let test_timing_monotone () =
  let mk misses hops =
    let st = Stats.create ~nprocs:4 in
    st.Stats.hits <- 1000;
    st.Stats.remote_fills <- misses;
    st.Stats.network_hops <- hops;
    st
  in
  let p = Timing.alewife_like in
  let cheap = Timing.cycles (mk 10 20) ~nprocs:4 p in
  let costly = Timing.cycles (mk 100 200) ~nprocs:4 p in
  checkb "more misses cost more" true (costly > cheap);
  Alcotest.(check (float 1e-9))
    "speedup ratio"
    (costly /. cheap)
    (Timing.speedup ~baseline:(mk 100 200) ~improved:(mk 10 20) ~nprocs:4 p)

(* ------------------------------------------------------------------ *)
(* Placement map                                                       *)
(* ------------------------------------------------------------------ *)

let is_permutation perm =
  let n = Array.length perm in
  let seen = Array.make n false in
  Array.for_all
    (fun v ->
      v >= 0 && v < n
      &&
      if seen.(v) then false
      else begin
        seen.(v) <- true;
        true
      end)
    perm

let test_placement_permutations () =
  let grid = [| 4; 4 |] in
  let mesh = Mesh.mesh ~nprocs:16 in
  List.iter
    (fun s ->
      checkb
        (Format.asprintf "%a is a permutation" Placement_map.pp_strategy s)
        true
        (is_permutation (Placement_map.permutation s ~grid ~mesh)))
    Placement_map.[ Linear; Snake; Folded; Serpentine; Shuffled 7 ];
  let grid3 = [| 2; 3; 4 |] in
  let mesh3 = Mesh.mesh ~nprocs:24 in
  List.iter
    (fun s ->
      checkb "3d permutation" true
        (is_permutation (Placement_map.permutation s ~grid:grid3 ~mesh:mesh3)))
    Placement_map.[ Linear; Snake; Folded; Serpentine; Shuffled 7 ]

let test_placement_costs () =
  let mesh = Mesh.mesh ~nprocs:16 in
  let grid = [| 4; 4 |] in
  let cost s =
    Placement_map.neighbor_hop_cost ~grid ~mesh
      (Placement_map.permutation s ~grid ~mesh)
  in
  (* The 4x4 grid maps onto the 4x4 mesh perfectly: linear is optimal
     (every grid neighbour is a mesh neighbour). *)
  check "linear on matching mesh" 24 (cost Placement_map.Linear);
  checkb "random is worse" true (cost (Placement_map.Shuffled 42) > 24);
  let _, _, best_cost = Placement_map.best ~grid ~mesh in
  check "best finds the optimum" 24 best_cost

let test_placement_grid_mesh_mismatch () =
  (* A 16x1 virtual chain on a 4x4 mesh: the snake keeps chain
     neighbours at mesh distance 1; the linear map pays the row wrap. *)
  let mesh = Mesh.mesh ~nprocs:16 in
  let grid = [| 16; 1 |] in
  let cost s =
    Placement_map.neighbor_hop_cost ~grid ~mesh
      (Placement_map.permutation s ~grid ~mesh)
  in
  (* Every consecutive pair of a serpentine walk is a mesh neighbour:
     the 15 chain links cost exactly 15 hops, beating row-major's wraps. *)
  check "serpentine is optimal for a chain" 15 (cost Placement_map.Serpentine);
  checkb "serpentine < linear" true
    (cost Placement_map.Serpentine < cost Placement_map.Linear)

(* ------------------------------------------------------------------ *)
(* Simulator invariants                                                *)
(* ------------------------------------------------------------------ *)

let analyze_ex2 () =
  let nest = Loopart.Programs.example2 () in
  let cost = Cost.of_nest nest in
  let sched tile = Codegen.make nest tile ~nprocs:100 in
  (nest, cost, sched)

let test_sim_footprints_match_theory () =
  (* The per-processor unique-address counts must equal the analytic
     cumulative footprint: 204 for column tiles, 240 for 10x10. *)
  let _, _, sched = analyze_ex2 () in
  let r = Sim.run (sched (Tile.rect [| 100; 1 |])) Sim.default in
  Array.iter (fun f -> check "column footprint 204" 204 f) (Sim.footprints r);
  let r2 = Sim.run (sched (Tile.rect [| 10; 10 |])) Sim.default in
  Array.iter (fun f -> check "square footprint 240" 240 f) (Sim.footprints r2)

let test_sim_infinite_cache_miss_identity () =
  (* With infinite caches and a single pass, misses per processor equal
     its footprint (every element misses exactly once, reads never lose
     lines). *)
  let _, _, sched = analyze_ex2 () in
  let r = Sim.run (sched (Tile.rect [| 10; 10 |])) Sim.default in
  let st = r.Sim.stats in
  check "misses = sum of footprints"
    (Array.fold_left ( + ) 0 (Sim.footprints r))
    st.Stats.misses;
  check "all cold" st.Stats.misses st.Stats.cold_misses;
  check "no replacements" 0 st.Stats.replacement_misses

let test_sim_comm_free_partition () =
  let _, _, sched = analyze_ex2 () in
  let r = Sim.run (sched (Tile.rect [| 100; 1 |])) Sim.default in
  check "zero coherence" 0 r.Sim.stats.Stats.coherence_misses;
  check "zero invalidations" 0 r.Sim.stats.Stats.invalidations

let test_sim_accesses_accounting () =
  let _, _, sched = analyze_ex2 () in
  let r = Sim.run (sched (Tile.rect [| 10; 10 |])) Sim.default in
  let st = r.Sim.stats in
  (* 10000 iterations x 3 references. *)
  check "accesses" 30000 st.Stats.accesses;
  check "reads" 20000 st.Stats.reads;
  check "writes" 10000 st.Stats.writes;
  check "hits + misses = accesses" st.Stats.accesses
    (st.Stats.hits + st.Stats.misses)

let test_sim_doseq_steady_state () =
  (* Second and later passes over a read-only array are free; an in-place
     update keeps producing coherence traffic. *)
  let ro = Loopart.Programs.stencil5 ~n:16 ~steps:3 () in
  let sched = Codegen.make ro (Tile.rect [| 8; 8 |]) ~nprocs:4 in
  let r = Sim.run sched Sim.default in
  check "read-only: no coherence misses" 0 r.Sim.stats.Stats.coherence_misses;
  let ip = Loopart.Programs.relax_inplace ~n:17 ~steps:3 () in
  let sched2 = Codegen.make ip (Tile.rect [| 8; 8 |]) ~nprocs:4 in
  let r2 = Sim.run sched2 Sim.default in
  checkb "in-place: coherence misses appear" true
    (r2.Sim.stats.Stats.coherence_misses > 0);
  checkb "in-place: invalidations appear" true
    (r2.Sim.stats.Stats.invalidations > 0)

let test_sim_accumulate_counts_sync () =
  let mm = Loopart.Programs.matmul ~n:8 () in
  let sched = Codegen.make mm (Tile.rect [| 4; 4; 4 |]) ~nprocs:8 in
  let r = Sim.run sched Sim.default in
  (* Every iteration performs one accumulate. *)
  check "sync ops" 512 r.Sim.stats.Stats.sync_ops;
  checkb "accumulates cause invalidations" true
    (r.Sim.stats.Stats.invalidations > 0)

let test_sim_finite_cache_replacements () =
  let _, _, sched = analyze_ex2 () in
  let cfg =
    { Sim.default with Sim.geometry = Cache.Finite { sets = 16; ways = 2 } }
  in
  let r = Sim.run (sched (Tile.rect [| 10; 10 |])) cfg in
  checkb "replacement misses appear" true
    (r.Sim.stats.Stats.replacement_misses > 0);
  (* Infinite-cache run dominates the finite one. *)
  let r_inf = Sim.run (sched (Tile.rect [| 10; 10 |])) Sim.default in
  checkb "finite cache misses more" true
    (r.Sim.stats.Stats.misses >= r_inf.Sim.stats.Stats.misses)

let test_sim_aligned_placement_local_fills () =
  (* With mesh topology and aligned placement, writes to the private
     array A fill locally. *)
  let nest = Loopart.Programs.example2 () in
  let cost = Cost.of_nest nest in
  let sched = Codegen.make nest (Tile.rect [| 100; 1 |]) ~nprocs:100 in
  let placement = Data_partition.aligned sched cost in
  let cfg =
    {
      Sim.default with
      Sim.topology = Sim.Mesh2d;
      placement = Some placement;
    }
  in
  let r = Sim.run sched cfg in
  checkb "some local fills" true (r.Sim.stats.Stats.local_fills > 0);
  let rr = Data_partition.round_robin ~nprocs:100 in
  let cfg2 =
    { Sim.default with Sim.topology = Sim.Mesh2d; placement = Some rr }
  in
  let r2 = Sim.run sched cfg2 in
  checkb "aligned beats round robin on local fills" true
    (r.Sim.stats.Stats.local_fills > r2.Sim.stats.Stats.local_fills);
  checkb "aligned has fewer hops" true
    (r.Sim.stats.Stats.network_hops < r2.Sim.stats.Stats.network_hops)

let test_sim_deterministic () =
  let _, _, sched = analyze_ex2 () in
  let r1 = Sim.run (sched (Tile.rect [| 20; 5 |])) Sim.default in
  let r2 = Sim.run (sched (Tile.rect [| 20; 5 |])) Sim.default in
  check "same misses" r1.Sim.stats.Stats.misses r2.Sim.stats.Stats.misses;
  check "same hops" r1.Sim.stats.Stats.network_hops
    r2.Sim.stats.Stats.network_hops

let test_sim_line_size () =
  (* The relaxation walks the contiguous dimension, so wider lines cut
     misses roughly in proportion to the line size. *)
  let nest = Loopart.Programs.relax_inplace ~n:33 ~steps:1 () in
  let sched = Codegen.make nest (Tile.rect [| 8; 8 |]) ~nprocs:16 in
  let run line_size = Sim.run sched { Sim.default with Sim.line_size } in
  let r1 = run 1 and r4 = run 4 in
  checkb "wider lines miss less" true
    (r4.Sim.stats.Stats.misses * 2 < r1.Sim.stats.Stats.misses);
  (* Accesses are unaffected by the coherence granularity. *)
  check "same accesses" r1.Sim.stats.Stats.accesses
    r4.Sim.stats.Stats.accesses;
  (* But a diagonal access pattern gets no line reuse: example 2's
     column tiles stride both array dimensions at once. *)
  let _, _, sched2 = analyze_ex2 () in
  let e1 = Sim.run (sched2 (Tile.rect [| 100; 1 |])) Sim.default in
  let e4 =
    Sim.run (sched2 (Tile.rect [| 100; 1 |]))
      { Sim.default with Sim.line_size = 4 }
  in
  checkb "diagonal walk barely benefits" true
    (e4.Sim.stats.Stats.misses * 2 > e1.Sim.stats.Stats.misses)

let test_sim_false_sharing () =
  (* Two processors writing interleaved elements of one row share every
     line when lines are wide: invalidations appear that unit lines do
     not have. *)
  let nest =
    let open Loopir.Dsl in
    let i = var 0 and j = var 1 in
    nest ~name:"false_share" ~seq:(doseq "t" 1 2)
      [ doall "i" 1 2; doall "j" 1 16 ]
      [ write "A" [ j; i ] ]
    (* note: j is the slow dimension of A, i the contiguous one *)
  in
  let sched = Codegen.make nest (Tile.rect [| 1; 16 |]) ~nprocs:2 in
  let unit = Sim.run sched Sim.default in
  let wide = Sim.run sched { Sim.default with Sim.line_size = 2 } in
  check "no sharing with unit lines" 0 unit.Sim.stats.Stats.invalidations;
  checkb "false sharing with wide lines" true
    (wide.Sim.stats.Stats.invalidations > 0)

(* The simulator issues each processor's tiles one after another, as
   the generated SPMD code and the runtime run them.  relax_inplace's
   skewed tile gives each of two processors several parallelepipeds
   whose body reads what it writes, so the issue order shows in the
   coherence counts. *)
let test_sim_issues_tile_order () =
  let a =
    Loopart.Driver.analyze ~try_skewed:true ~nprocs:2
      (Loopart.Programs.relax_inplace ())
  in
  let sched = Loopart.Driver.schedule ~tile:(Loopart.Driver.best_tile a) a in
  checkb "skewed tile" true
    (match sched.Codegen.tile with Tile.Pped _ -> true | Tile.Rect _ -> false);
  let by = Array.make 2 [] in
  Array.iter
    (fun (o, boxes) -> by.(o) <- by.(o) @ Array.to_list boxes)
    (Codegen.tiles sched);
  let tiled =
    Sim.run_assignment sched.Codegen.nest
      ~per_proc:(Array.map Array.of_list by)
      Sim.default
  in
  let r = Sim.run sched Sim.default in
  checkb "stats" true (r.Sim.stats = tiled.Sim.stats);
  Alcotest.(check (array int))
    "footprints" (Sim.footprints tiled) (Sim.footprints r)

(* A direct-mapped cache indexes sets by row-major address.  A[1,1] and
   A[2,3] lie [d] = 5 elements apart in A's [1..2] x [1..3] box (first
   touch would number them 0 and 1), so with [d] sets they evict each
   other every step and with [d + 1] sets they never do. *)
let test_sim_direct_mapped_sets () =
  let nest =
    let open Loopir.Dsl in
    let i = var 0 and j = var 1 in
    nest ~name:"conflict" ~seq:(doseq "t" 1 2)
      [ doall "i" 1 1; doall "j" 1 1 ]
      [ read "A" [ i; j ]; read "A" [ i + int 1; j + int 2 ] ]
  in
  let l = Layout.of_nest nest in
  let d = Layout.address l "A" [| 2; 3 |] - Layout.address l "A" [| 1; 1 |] in
  check "row-major distance" 5 d;
  let run sets =
    Sim.run_assignment nest
      ~per_proc:[| [| Loopir.Nest.bounds nest |] |]
      { Sim.default with Sim.geometry = Cache.Finite { sets; ways = 1 } }
  in
  let same = run d and apart = run (d + 1) in
  check "same set: both evicted each step" 2
    same.Sim.stats.Stats.replacement_misses;
  check "same set: every access misses" 4 same.Sim.stats.Stats.misses;
  check "different sets: no replacement" 0
    apart.Sim.stats.Stats.replacement_misses;
  check "different sets: cold misses only" 2 apart.Sim.stats.Stats.misses

let test_sim_box_outside_space () =
  let nest = Loopart.Programs.example2 () in
  let bounds = Loopir.Nest.bounds nest in
  let run box =
    Sim.run_assignment nest ~per_proc:[| [| box |] |] Sim.default
  in
  let past = Array.map (fun (_, hi) -> (hi + 1, hi + 1)) bounds in
  Alcotest.check_raises "one past the upper bound"
    (Invalid_argument "Sim.run_assignment: box outside the iteration space")
    (fun () -> ignore (run past));
  let empty = Array.map (fun (lo, _) -> (lo + 1, lo)) bounds in
  let r = run empty in
  check "empty box accepted" 0 r.Sim.stats.Stats.accesses

(* The Doseq trip count has one rule (Nest.steps): an override below 1
   is refused, not simulated as zero steps with all-zero footprints. *)
let test_sim_zero_steps () =
  let _, _, sched = analyze_ex2 () in
  Alcotest.check_raises "seq_steps = Some 0"
    (Invalid_argument "Nest.steps: steps < 1")
    (fun () ->
      ignore
        (Sim.run (sched (Tile.rect [| 20; 5 |]))
           { Sim.default with Sim.seq_steps = Some 0 }))

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let prop_layout_injective_roundtrip =
  QCheck2.Test.make ~name:"layout addresses are injective and reversible"
    ~count:200
    QCheck2.Gen.(
      pair (int_range 1 8)
        (list_size (int_range 2 20)
           (pair (int_range 1 8) (int_range 1 8))))
    (fun (align, points) ->
      let l = Layout.of_nest ~line_align:align (layout_nest ()) in
      let addrs =
        List.map (fun (i, j) -> ((i, j), Layout.address l "A" [| i; j |])) points
      in
      List.for_all
        (fun ((p1, a1) : (int * int) * int) ->
          List.for_all
            (fun ((p2, a2) : (int * int) * int) -> p1 = p2 || a1 <> a2)
            addrs
          &&
          let name, coords = Layout.element_of l a1 in
          name = "A" && coords = [ fst p1; snd p1 ])
        addrs)

let prop_mesh_distance_metric =
  QCheck2.Test.make ~name:"mesh distance is a metric" ~count:200
    QCheck2.Gen.(
      pair (int_range 2 30) (triple (int_range 0 29) (int_range 0 29) (int_range 0 29)))
    (fun (n, (a, b, c)) ->
      QCheck2.assume (a < n && b < n && c < n);
      let m = Mesh.mesh ~nprocs:n in
      Mesh.distance m a a = 0
      && Mesh.distance m a b = Mesh.distance m b a
      && Mesh.distance m a c <= Mesh.distance m a b + Mesh.distance m b c)

let prop_placement_bijective =
  QCheck2.Test.make ~name:"placement permutations are bijections" ~count:100
    QCheck2.Gen.(
      pair
        (list_size (int_range 1 3) (int_range 1 4))
        (oneofl
           Placement_map.
             [ Linear; Snake; Folded; Serpentine; Shuffled 3; Shuffled 99 ]))
    (fun (grid_l, strategy) ->
      let grid = Array.of_list grid_l in
      let n = Array.fold_left ( * ) 1 grid in
      let mesh = Mesh.mesh ~nprocs:n in
      is_permutation (Placement_map.permutation strategy ~grid ~mesh))

let machine_props =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_layout_injective_roundtrip;
      prop_mesh_distance_metric;
      prop_placement_bijective;
    ]

let () =
  Alcotest.run "machine"
    [
      ( "cache",
        [
          Alcotest.test_case "infinite" `Quick test_infinite_cache;
          Alcotest.test_case "finite LRU" `Quick test_finite_cache_lru;
          Alcotest.test_case "finite sets" `Quick test_finite_cache_sets;
        ] );
      ( "line table",
        [ Alcotest.test_case "protocol states" `Quick test_line_table ] );
      ( "layout",
        [
          Alcotest.test_case "addresses" `Quick test_layout_addresses;
          Alcotest.test_case "alignment" `Quick test_layout_alignment;
          Alcotest.test_case "lines" `Quick test_layout_lines;
          Alcotest.test_case "compile = address" `Quick test_layout_compile;
        ] );
      ( "timing",
        [ Alcotest.test_case "monotone in events" `Quick test_timing_monotone ] );
      ( "placement map",
        [
          Alcotest.test_case "permutations" `Quick
            test_placement_permutations;
          Alcotest.test_case "matching mesh" `Quick test_placement_costs;
          Alcotest.test_case "chain on mesh" `Quick
            test_placement_grid_mesh_mismatch;
        ] );
      ( "mesh",
        [
          Alcotest.test_case "distances" `Quick test_mesh_distance;
          Alcotest.test_case "triangle inequality" `Quick
            test_mesh_triangle_inequality;
        ] );
      ( "simulator",
        [
          Alcotest.test_case "footprints match theory" `Quick
            test_sim_footprints_match_theory;
          Alcotest.test_case "infinite-cache miss identity" `Quick
            test_sim_infinite_cache_miss_identity;
          Alcotest.test_case "communication-free partition" `Quick
            test_sim_comm_free_partition;
          Alcotest.test_case "access accounting" `Quick
            test_sim_accesses_accounting;
          Alcotest.test_case "doseq steady state" `Quick
            test_sim_doseq_steady_state;
          Alcotest.test_case "accumulate sync" `Quick
            test_sim_accumulate_counts_sync;
          Alcotest.test_case "finite cache replacements" `Quick
            test_sim_finite_cache_replacements;
          Alcotest.test_case "aligned placement" `Quick
            test_sim_aligned_placement_local_fills;
          Alcotest.test_case "deterministic" `Quick test_sim_deterministic;
          Alcotest.test_case "cache lines" `Quick test_sim_line_size;
          Alcotest.test_case "false sharing" `Quick test_sim_false_sharing;
          Alcotest.test_case "issues tile order" `Quick
            test_sim_issues_tile_order;
          Alcotest.test_case "direct-mapped sets" `Quick
            test_sim_direct_mapped_sets;
          Alcotest.test_case "zero steps" `Quick test_sim_zero_steps;
          Alcotest.test_case "box outside space" `Quick
            test_sim_box_outside_space;
        ] );
      ("properties", machine_props);
    ]
