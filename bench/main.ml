(* The experiment harness: regenerates every quantitative claim, worked
   example and figure of the paper (experiment ids E1-E14 in DESIGN.md),
   printing paper-value vs measured-value tables, then times the analysis
   itself with Bechamel (E13).

   Run:  dune exec bench/main.exe            (all experiments + timings)
         dune exec bench/main.exe -- E8      (one experiment)            *)

open Intmath
open Matrixkit
open Loopir
open Footprint
open Partition
open Machine

let pf = Format.printf

let header id title =
  pf "@.============================================================@.";
  pf "%s  %s@." id title;
  pf "============================================================@."

let row4 a b c d = pf "%-26s %16s %16s %16s@." a b c d
let soi = string_of_int

(* ------------------------------------------------------------------ *)
(* Machine-readable results: each real-execution experiment writes one *)
(* BENCH_*.json array of rows, every row opening with the same header,  *)
(* so the perf trajectory can be tracked across commits.               *)
(* ------------------------------------------------------------------ *)

module Json = Runtime.Json

let host_cores = Domain.recommended_domain_count ()

let row ~experiment ~name ~path ~nprocs ~steps fields =
  Json.Obj
    ([
       ("experiment", Json.String experiment);
       ("name", String name);
       ("path", String path);
       ("nprocs", Int nprocs);
       ("steps", Int steps);
       ("host_cores", Int host_cores);
     ]
    @ fields)

let write_rows file rows =
  let oc = open_out file in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (Json.to_string (List rows) ^ "\n"));
  pf "@.wrote %d rows to %s@." (List.length rows) file

(* Timed samples are summarised by their median and quartiles, taken
   after a discarded warmup run that pays the one-time costs (code
   warmup, allocator growth, CPU governor ramp).  The median is robust
   to scheduler outliers in both directions - minimum-of-k without
   warmup let a lucky baseline minimum meet an unlucky treatment
   minimum and report impossible negative overheads. *)
let quartiles samples =
  let a = Array.copy samples in
  Array.sort compare a;
  let n = Array.length a in
  (a.(n / 4), a.(n / 2), a.(3 * n / 4))

let spread_fields samples =
  let q1, median, q3 = quartiles samples in
  [
    ("wall_seconds", Json.Float median);
    ("wall_q1_seconds", Float q1);
    ("wall_q3_seconds", Float q3);
    ("samples", Int (Array.length samples));
  ]

(* ------------------------------------------------------------------ *)
(* E1: Example 2 / Figure 3                                            *)
(* ------------------------------------------------------------------ *)

let e1 () =
  header "E1" "Example 2 / Figure 3: 104 vs 140 misses per tile";
  let nest = Loopart.Programs.example2 () in
  let cost = Cost.of_nest nest in
  let b_cls =
    List.find
      (fun (c : Cost.class_cost) -> c.Cost.cls.Uniform.array_name = "B")
      cost.Cost.classes
  in
  let g = b_cls.Cost.cls.Uniform.g in
  let spread = Uniform.spread b_cls.Cost.cls in
  let sim tile =
    let sched = Codegen.make nest tile ~nprocs:100 in
    Sim.run sched Sim.default
  in
  pf "B-class footprint per tile (paper: 104 for columns, 140 for squares)@.";
  row4 "partition" "Thm 4" "Lemma 3 exact" "simulated(A+B)";
  List.iter
    (fun (name, lambda, tile) ->
      let t4 = Size.rect_cumulative ~exact:false ~lambda ~g ~spread in
      let l3 = Size.rect_cumulative ~exact:true ~lambda ~g ~spread in
      let r = sim tile in
      row4 name (soi t4) (soi l3)
        (soi (Array.fold_left max 0 (Sim.footprints r))))
    [
      ("(a) 100x1 columns", [| 99; 0 |], Tile.rect [| 100; 1 |]);
      ("(b) 10x10 squares", [| 9; 9 |], Tile.rect [| 10; 10 |]);
    ];
  let r = Rectangular.optimize cost ~nprocs:100 in
  pf "optimizer choice: %s (paper: partition (a))@."
    (Tile.to_string r.Rectangular.tile);
  let ra = sim (Tile.rect [| 100; 1 |]) in
  pf "partition (a) coherence misses: %d, invalidations: %d (paper: zero \
      coherence traffic)@."
    ra.Sim.stats.Stats.coherence_misses ra.Sim.stats.Stats.invalidations

(* ------------------------------------------------------------------ *)
(* E2: Example 3 parallelograms                                        *)
(* ------------------------------------------------------------------ *)

let e2 () =
  header "E2" "Example 3: parallelogram tiles beat every rectangle";
  let nest = Loopart.Programs.example3 () in
  let cost = Cost.of_nest nest in
  match Skewed.optimize cost ~nprocs:10 with
  | None -> pf "pped engine unexpectedly not applicable@."
  | Some s ->
      pf "best rectangular cost:      %.1f@." s.Skewed.rect_cost;
      pf "parallelepiped (continuous): %.1f@." s.Skewed.continuous_cost;
      pf "parallelepiped (rounded L):  %.1f@." s.Skewed.rounded_cost;
      pf "L =@.%a@." Imat.pp s.Skewed.l;
      pf "improves on rectangles: %b (paper: yes - reuse along (1,3) is \
          internalized)@."
        s.Skewed.improves_on_rect;
      let rect = (Rectangular.optimize cost ~nprocs:10).Rectangular.tile in
      let sim tile =
        (Sim.run (Codegen.make nest tile ~nprocs:10) Sim.default).Sim.stats
          .Stats.misses
      in
      pf "simulated misses: rect %d vs pped %d@." (sim rect)
        (sim s.Skewed.tile)

(* ------------------------------------------------------------------ *)
(* E3: Example 6 footprints                                            *)
(* ------------------------------------------------------------------ *)

let e3 () =
  header "E3" "Example 6 / Figs 5-7: |det LG| vs exact footprint";
  let g = Imat.of_rows [ [ 1; 0 ]; [ 1; 1 ] ] in
  row4 "tile L1,L2" "|det LG|" "exact points" "paper formula";
  List.iter
    (fun (l1, l2) ->
      let l = Imat.of_rows [ [ l1; l1 ]; [ l2; 0 ] ] in
      let v = Rat.floor (Size.pped_single ~l:(Qmat.of_imat l) ~g) in
      let iters = Exact.pped_tile_iterations ~l in
      let exact =
        Exact.footprint_size ~iterations:iters (Affine.make g [| 0; 0 |])
      in
      row4
        (Printf.sprintf "L1=%d L2=%d" l1 l2)
        (soi v) (soi exact)
        (Printf.sprintf "%d+%d" (l1 * l2) (l1 + l2)))
    [ (4, 3); (6, 5); (10, 5); (12, 8) ];
  pf "(paper: footprint = L1*L2 plus boundary terms ~ L1 + L2 + 1)@."

(* ------------------------------------------------------------------ *)
(* E4: Example 7 dependent columns                                     *)
(* ------------------------------------------------------------------ *)

let e4 () =
  header "E4" "Example 7 / Section 3.4.1: dependent-column reduction";
  let g = Imat.of_rows [ [ 1; 2; 1 ]; [ 0; 0; 1 ] ] in
  let red = Size.reduce ~g ~spread:[| 0; 0; 0 |] in
  pf "A[i,2i,i+j]: kept columns {%s} (paper: a maximal independent set)@."
    (String.concat "," (List.map soi red.Size.kept_cols));
  pf "G' =@.%a@.unimodular: %b (paper: G' = [[1,1],[0,1]])@." Imat.pp
    red.Size.g_reduced
    (Imat.is_unimodular red.Size.g_reduced);
  row4 "tile" "reduced count" "exact count" "";
  List.iter
    (fun lambda ->
      let exact =
        Exact.footprint_size
          ~iterations:(Exact.rect_tile_iterations ~lambda)
          (Affine.make g [| 0; 0; 0 |])
      in
      row4
        (Printf.sprintf "%dx%d" (lambda.(0) + 1) (lambda.(1) + 1))
        (soi (Size.rect_single ~lambda ~g))
        (soi exact) "")
    [ [| 3; 3 |]; [| 7; 2 |]; [| 5; 9 |] ]

(* ------------------------------------------------------------------ *)
(* E5: Example 8, the 2:3:4 ratio                                      *)
(* ------------------------------------------------------------------ *)

let e5 () =
  header "E5" "Example 8: aspect ratio 2:3:4 = Abraham-Hudak";
  let nest = Loopart.Programs.example8 ~n:36 () in
  let cost = Cost.of_nest nest in
  pf "objective: %s@." (Mpoly.to_string cost.Cost.objective);
  (match Rectangular.aspect_ratio cost with
  | Some cs ->
      pf "closed-form proportions: %s (paper: 2:3:4)@."
        (String.concat ":" (List.map Rat.to_string (Array.to_list cs)))
  | None -> pf "closed form not applicable?@.");
  (* A 24x36x48 space tiles exactly into 8 equal tiles many ways; the
     (12,18,24) shape is the paper's 2:3:4. *)
  let nest_asym =
    let open Dsl in
    let i = var 0 and j = var 1 and k = var 2 in
    nest ~name:"example8_asym"
      [ doall "i" 1 24; doall "j" 1 36; doall "k" 1 48 ]
      [
        write "A" [ i; j; k ];
        read "B" [ i - int 1; j; k + int 1 ];
        read "B" [ i; j + int 1; k ];
        read "B" [ i + int 1; j - int 2; k - int 3 ];
      ]
  in
  let cost_asym = Cost.of_nest nest_asym in
  row4 "tile (vol 5184)" "Thm 4 misses" "simulated max" "";
  List.iter
    (fun sizes ->
      let tile = Tile.rect sizes in
      let predicted = Cost.misses_per_tile cost_asym tile in
      let sched = Codegen.make nest_asym tile ~nprocs:8 in
      let r = Sim.run sched Sim.default in
      row4
        (String.concat "x" (List.map soi (Array.to_list sizes)))
        (soi predicted)
        (soi (Array.fold_left max 0 (Sim.footprints r)))
        "")
    [
      [| 12; 18; 24 |];
      [| 24; 18; 12 |];
      [| 12; 9; 48 |];
      [| 24; 36; 6 |];
      [| 3; 36; 48 |];
    ];
  pf "(12x18x24 is the 2:3:4 shape - lowest predicted and measured)@.";
  match Baselines.Abraham_hudak.partition nest ~nprocs:8 with
  | Ok ah ->
      pf "Abraham-Hudak chooses %s; our optimizer chooses %s (paper: \
          identical partitions)@."
        (String.concat "x"
           (List.map soi (Array.to_list ah.Baselines.Abraham_hudak.sizes)))
        (String.concat "x"
           (List.map soi
              (Array.to_list
                 (Rectangular.optimize cost ~nprocs:8).Rectangular.sizes)))
  | Error e -> pf "AH error: %s@." e

(* ------------------------------------------------------------------ *)
(* E6: Example 9                                                       *)
(* ------------------------------------------------------------------ *)

let e6 () =
  header "E6" "Example 9: two uniformly intersecting classes";
  let nest = Loopart.Programs.example9 ~n:60 () in
  let cost = Cost.of_nest nest in
  List.iter
    (fun (c : Cost.class_cost) ->
      if c.Cost.cls.Uniform.array_name <> "A" then
        pf "class %s cumulative: %s@." c.Cost.cls.Uniform.array_name
          (Mpoly.to_string c.Cost.cumulative))
    cost.Cost.classes;
  pf "total traffic: %s@." (Mpoly.to_string cost.Cost.total_traffic);
  (* The paper's general-L determinant displays, regenerated
     symbolically via Theorem 2 over a generic tile matrix. *)
  let names = Pmat.entry_names 2 in
  let show_terms label g spread =
    let terms = Size.pped_terms_symbolic ~nesting:2 ~g ~spread in
    pf "%s Theorem-2 terms (|.| of each):@." label;
    List.iter (fun t -> pf "    %s@." (Mpoly.to_string ~names t)) terms
  in
  show_terms "B class" (Imat.identity 2) [| 2; 1 |];
  show_terms "C class" (Imat.of_rows [ [ 1; 0 ]; [ 1; 1 ] ]) [| 1; 3 |];
  pf "@.paper prints 2L11L22 + 4L11 + 6L22 and '4L11 = 6L22'; Theorem 4 \
      arithmetic gives 4x0 + 4x1 (square optimum).  Ground truth by \
      exhaustive enumeration at volume 360:@.";
  let b1 = Affine.of_rows [ [ 1; 0 ]; [ 0; 1 ] ] [ -2; 0 ] in
  let b2 = Affine.of_rows [ [ 1; 0 ]; [ 0; 1 ] ] [ 0; -1 ] in
  let c1 = Affine.of_rows [ [ 1; 0 ]; [ 1; 1 ] ] [ 0; 0 ] in
  let c2 = Affine.of_rows [ [ 1; 0 ]; [ 1; 1 ] ] [ 1; 3 ] in
  row4 "tile" "exact total" "Thm 4 total" "";
  List.iter
    (fun (x0, x1) ->
      let iters = Exact.rect_tile_iterations ~lambda:[| x0 - 1; x1 - 1 |] in
      let exact =
        Exact.cumulative_footprint_size ~iterations:iters [ b1; b2 ]
        + Exact.cumulative_footprint_size ~iterations:iters [ c1; c2 ]
        + (x0 * x1)
      in
      let t4 = Cost.misses_per_tile cost (Tile.rect [| x0; x1 |]) in
      row4 (Printf.sprintf "%dx%d" x0 x1) (soi exact) (soi t4) "")
    [ (19, 19); (18, 20); (24, 15); (15, 24); (12, 30); (36, 10) ];
  pf "-> near-square tiles are optimal; we reproduce the methodology and \
      flag the paper's arithmetic slip (see EXPERIMENTS.md).@."

(* ------------------------------------------------------------------ *)
(* E7: Example 10                                                      *)
(* ------------------------------------------------------------------ *)

let e7 () =
  header "E7" "Example 10: general (non-unimodular / singular) G";
  let nest = Loopart.Programs.example10 ~n:60 () in
  let cost = Cost.of_nest nest in
  pf "classes (paper: B pair; C pair; lone C; lone A):@.";
  List.iter
    (fun (c : Cost.class_cost) ->
      pf "  %s with %d refs: cumulative %s@." c.Cost.cls.Uniform.array_name
        (List.length c.Cost.cls.Uniform.refs)
        (Mpoly.to_string c.Cost.cumulative))
    cost.Cost.classes;
  let x =
    Rectangular.continuous_optimum cost ~volume:360.0 ~extents:[| 60; 60 |]
  in
  pf "continuous optimum (%.2f, %.2f): 2(Li+1)=%.1f vs 3(Lj+1)=%.1f \
      (paper: 2(Li+1) = 3(Lj+1))@."
    x.(0) x.(1)
    (2.0 *. x.(0))
    (3.0 *. x.(1));
  let g = Imat.of_rows [ [ 1; 1 ]; [ 1; -1 ] ] in
  let r1 = Affine.make g [| 0; 0 |] and r2 = Affine.make g [| 4; 2 |] in
  row4 "tile" "exact B union" "Lemma 3" "Thm 4";
  List.iter
    (fun (x0, x1) ->
      let lambda = [| x0 - 1; x1 - 1 |] in
      let iters = Exact.rect_tile_iterations ~lambda in
      row4
        (Printf.sprintf "%dx%d" x0 x1)
        (soi (Exact.cumulative_footprint_size ~iterations:iters [ r1; r2 ]))
        (soi (Size.rect_cumulative ~exact:true ~lambda ~g ~spread:[| 4; 2 |]))
        (soi
           (Size.rect_cumulative ~exact:false ~lambda ~g ~spread:[| 4; 2 |])))
    [ (12, 8); (18, 12); (24, 15) ]

(* ------------------------------------------------------------------ *)
(* E8: Figure 9 steady-state coherence                                 *)
(* ------------------------------------------------------------------ *)

let e8 () =
  header "E8" "Figure 9: Doseq steady-state coherence traffic";
  let steps = 3 in
  (* A 32x48x64 space on 64 processors: with a 4x4x4 grid the inner
     processors have neighbours on all six sides, so the interior-tile
     analysis applies to the busiest processor. *)
  let nest =
    let open Dsl in
    let i = var 0 and j = var 1 and k = var 2 in
    nest ~name:"fig9" ~seq:(doseq "t" 1 steps)
      [ doall "i" 4 35; doall "j" 4 51; doall "k" 4 67 ]
      [
        write "A" [ i; j; k ];
        read "A" [ i - int 1; j; k + int 1 ];
        read "A" [ i; j + int 1; k ];
        read "A" [ i + int 1; j - int 2; k - int 3 ];
      ]
  in
  let cost = Cost.of_nest nest in
  pf "traffic term: %s (paper: 2LjLk + 3LiLk + 4LiLj)@."
    (Mpoly.to_string cost.Cost.total_traffic);
  row4 "tile (vol 1536)" "traffic/tile" "max coh/step" "invalidations";
  List.iter
    (fun sizes ->
      let tile = Tile.rect sizes in
      let traffic = Cost.traffic_per_tile cost tile in
      let sched = Codegen.make nest tile ~nprocs:64 in
      let r = Sim.run sched Sim.default in
      (* Busiest (most interior) processor, per steady-state step: a
         footprint is not coherence traffic, so approximate the steady
         traffic by footprint - volume. *)
      let max_coh =
        Array.fold_left max 0 (Sim.footprints r)
        - (sizes.(0) * sizes.(1) * sizes.(2))
      in
      row4
        (String.concat "x" (List.map soi (Array.to_list sizes)))
        (soi traffic) (soi max_coh)
        (soi (r.Sim.stats.Stats.invalidations / (steps - 1))))
    [
      [| 8; 12; 16 |] (* 2:3:4, grid 4x4x4 *);
      [| 16; 12; 8 |] (* grid 2x4x8 *);
      [| 8; 6; 32 |] (* grid 4x8x2 *);
      [| 16; 6; 16 |] (* grid 2x8x4 *);
      [| 4; 12; 32 |] (* grid 8x4x2 *);
    ];
  pf "(8x12x16 is the 2:3:4 shape: lowest analytic traffic and lowest \
      measured boundary re-fetch; 'max coh/step' is the busiest \
      processor's footprint beyond its own tile)@."

(* ------------------------------------------------------------------ *)
(* E9: Appendix B classification                                       *)
(* ------------------------------------------------------------------ *)

let e9 () =
  header "E9" "Appendix B: uniformly intersecting classification";
  let id = [ [ 1; 0 ]; [ 0; 1 ] ] in
  let aff = Affine.of_rows in
  let cases =
    [
      ("A[i,j] ~ A[i+1,j-3]", aff id [ 0; 0 ], aff id [ 1; -3 ], true);
      ("A[i,j] ~ A[i,j+4]", aff id [ 0; 0 ], aff id [ 0; 4 ], true);
      ( "A[2j,3,4] ~ A[2j-4,3,4]",
        aff [ [ 0; 0; 0 ]; [ 2; 0; 0 ] ] [ 0; 3; 4 ],
        aff [ [ 0; 0; 0 ]; [ 2; 0; 0 ] ] [ -4; 3; 4 ],
        true );
      ( "A[i,j] ~ A[2i,j]",
        aff id [ 0; 0 ],
        aff [ [ 2; 0 ]; [ 0; 1 ] ] [ 0; 0 ],
        false );
      ( "A[i,j] ~ A[2i,2j]",
        aff id [ 0; 0 ],
        aff [ [ 2; 0 ]; [ 0; 2 ] ] [ 0; 0 ],
        false );
      ( "A[j,2,4] ~ A[j,3,4]",
        aff [ [ 0; 0; 0 ]; [ 1; 0; 0 ] ] [ 0; 2; 4 ],
        aff [ [ 0; 0; 0 ]; [ 1; 0; 0 ] ] [ 0; 3; 4 ],
        false );
      ( "A[2i] ~ A[2i+1]",
        aff [ [ 2 ]; [ 0 ] ] [ 0 ],
        aff [ [ 2 ]; [ 0 ] ] [ 1 ],
        false );
      ( "A[i+2,2i+4] ~ A[i+3,2i+8]",
        aff [ [ 1; 2 ]; [ 0; 0 ] ] [ 2; 4 ],
        aff [ [ 1; 2 ]; [ 0; 0 ] ] [ 3; 8 ],
        false );
    ]
  in
  row4 "pair" "ours" "paper" "agree";
  List.iter
    (fun (name, a, b, expected) ->
      let got = Uniform.uniformly_intersecting a b in
      row4 name (string_of_bool got) (string_of_bool expected)
        (if got = expected then "yes" else "NO"))
    cases

(* ------------------------------------------------------------------ *)
(* E10: Ramanujam-Sadayappan agreement                                 *)
(* ------------------------------------------------------------------ *)

let e10 () =
  header "E10" "Communication-free partitions (Ramanujam-Sadayappan)";
  row4 "program" "comm-free" "normal(s)" "";
  List.iter
    (fun (name, nest) ->
      let t = Baselines.Ramanujam_sadayappan.analyze nest in
      let normals =
        match t.Baselines.Ramanujam_sadayappan.normals with
        | None -> "-"
        | Some n ->
            String.concat "; " (List.map Ivec.to_string (Imat.row_list n))
      in
      row4 name
        (string_of_bool t.Baselines.Ramanujam_sadayappan.comm_free)
        normals "")
    [
      ("example2", Loopart.Programs.example2 ());
      ("example3", Loopart.Programs.example3 ());
      ("example8", Loopart.Programs.example8 ());
      ("relax_inplace", Loopart.Programs.relax_inplace ());
      ("matmul", Loopart.Programs.matmul ());
    ];
  let nest = Loopart.Programs.example2 () in
  let t = Baselines.Ramanujam_sadayappan.analyze nest in
  (match Baselines.Ramanujam_sadayappan.slab_tile t nest ~nprocs:100 with
  | Some tile ->
      let r = Sim.run (Codegen.make nest tile ~nprocs:100) Sim.default in
      pf "example2 R-S slab %s: coherence misses %d, misses %d = distinct \
          elements %d@."
        (Tile.to_string tile) r.Sim.stats.Stats.coherence_misses
        r.Sim.stats.Stats.misses r.Sim.distinct_total
  | None -> pf "no slab?@.");
  pf "(our optimizer finds the same partition from the footprint side, \
      and additionally optimizes example10 where no communication-free \
      partition exists - see E7)@."

(* ------------------------------------------------------------------ *)
(* E11: matmul blocks vs rows                                          *)
(* ------------------------------------------------------------------ *)

let e11 () =
  header "E11" "Matrix multiply (Appendix A): blocks vs rows/columns";
  let n = 24 and nprocs = 16 in
  let nest = Loopart.Programs.matmul ~n () in
  let cost = Cost.of_nest nest in
  row4 "partition" "pred misses" "sim misses" "hops(aligned)";
  List.iter
    (fun (name, tile) ->
      let predicted = Cost.misses_per_tile cost tile * nprocs in
      let sched = Codegen.make nest tile ~nprocs in
      let placement = Data_partition.aligned sched cost in
      let r =
        Sim.run sched
          {
            Sim.default with
            Sim.topology = Sim.Mesh2d;
            placement = Some placement;
          }
      in
      row4 name (soi predicted)
        (soi r.Sim.stats.Stats.misses)
        (soi r.Sim.stats.Stats.network_hops))
    [
      ("rows (i split)", Tile.rect [| n / nprocs; n; n |]);
      ("cols (j split)", Tile.rect [| n; n / nprocs; n |]);
      ("blocks (4x4)", Tile.rect [| n / 4; n / 4; n |]);
    ];
  pf "(paper intro: square blocks have much higher reuse than rows or \
      columns)@."

(* ------------------------------------------------------------------ *)
(* E12: accuracy ablation                                              *)
(* ------------------------------------------------------------------ *)

let e12 () =
  header "E12" "Estimate accuracy: Theorem 4 vs Theorem 2 vs exact";
  let gs =
    [
      ("identity", Imat.identity 2, [| 2; 1 |]);
      ("skew [[1,0],[1,1]]", Imat.of_rows [ [ 1; 0 ]; [ 1; 1 ] ], [| 1; 2 |]);
      ("ex2 [[1,1],[1,-1]]", Imat.of_rows [ [ 1; 1 ]; [ 1; -1 ] ], [| 4; 2 |]);
      ("[[2,1],[0,1]]", Imat.of_rows [ [ 2; 1 ]; [ 0; 1 ] ], [| 2; 2 |]);
    ]
  in
  row4 "G (spread)" "exact" "Thm4 err%" "Thm2/idx err%";
  List.iter
    (fun (name, g, spread) ->
      let lambda = [| 11; 9 |] in
      let iters = Exact.rect_tile_iterations ~lambda in
      let r1 = Affine.make g (Ivec.zero 2) in
      let r2 = Affine.make g spread in
      let exact =
        Exact.cumulative_footprint_size ~iterations:iters [ r1; r2 ]
      in
      let t4 = Size.rect_cumulative ~exact:false ~lambda ~g ~spread in
      let l =
        Qmat.of_rows Rat.[ [ of_int 12; zero ]; [ zero; of_int 10 ] ]
      in
      let t2 =
        Rat.to_float (Size.pped_cumulative ~l ~g ~spread)
        /. float_of_int (abs (Imat.det g))
      in
      let err v = 100.0 *. (v -. float_of_int exact) /. float_of_int exact in
      row4 name (soi exact)
        (Printf.sprintf "%+.1f" (err (float_of_int t4)))
        (Printf.sprintf "%+.1f" (err t2)))
    gs;
  pf "(Theorem 2's parallelepiped estimate, normalized by the lattice \
      index |det G|, tracks the exact count; Theorem 4 is sharper for \
      rectangular tiles, as Section 3.7 claims)@."

(* ------------------------------------------------------------------ *)
(* E14: data partitioning                                              *)
(* ------------------------------------------------------------------ *)

let e14 () =
  header "E14" "Data partitioning & alignment (Section 4, footnote 2)";
  let nest = Loopart.Programs.relax_inplace ~n:65 ~steps:2 () in
  let cost = Cost.of_nest nest in
  let tile = (Rectangular.optimize cost ~nprocs:16).Rectangular.tile in
  let sched = Codegen.make nest tile ~nprocs:16 in
  row4 "placement" "local fills" "remote fills" "hops";
  List.iter
    (fun (name, placement) ->
      let r =
        Sim.run sched
          {
            Sim.default with
            Sim.topology = Sim.Mesh2d;
            placement = Some placement;
          }
      in
      row4 name
        (soi r.Sim.stats.Stats.local_fills)
        (soi r.Sim.stats.Stats.remote_fills)
        (soi r.Sim.stats.Stats.network_hops))
    [
      ("aligned (ours)", Data_partition.aligned sched cost);
      ("block rows", Data_partition.block_row ~nprocs:16 ~rows:64);
      ("round robin", Data_partition.round_robin ~nprocs:16);
    ];
  pf "cumulative spreads a+ (footnote 2, drive data partitioning):@.";
  List.iter
    (fun (name, a) -> pf "  %s: %s@." name (Ivec.to_string a))
    (Data_partition.cumulative_spread_note cost)

(* ------------------------------------------------------------------ *)
(* E15: cache lines                                                    *)
(* ------------------------------------------------------------------ *)

let e15 () =
  header "E15" "Cache lines > 1 (Section 2.2's extension)";
  let nest = Loopart.Programs.relax_inplace ~n:65 ~steps:2 () in
  let cost = Cost.of_nest nest in
  pf "element objective: %s@." (Mpoly.to_string cost.Cost.objective);
  pf "line objective (lines of 8): %s@."
    (Mpoly.to_string (Cost.line_adjusted_objective cost ~line_size:8));
  row4 "tile (256 iters)" "misses line=1" "misses line=4" "misses line=8";
  List.iter
    (fun sizes ->
      let sched = Codegen.make nest (Tile.rect sizes) ~nprocs:16 in
      let m line_size =
        (Sim.run sched { Sim.default with Sim.line_size }).Sim.stats
          .Stats.misses
      in
      row4
        (String.concat "x" (List.map soi (Array.to_list sizes)))
        (soi (m 1)) (soi (m 4)) (soi (m 8)))
    [ [| 32; 8 |]; [| 16; 16 |]; [| 8; 32 |]; [| 4; 64 |] ];
  pf "(unit lines prefer the square 16x16; wider lines shift the optimum \
      toward tiles elongated along the contiguous j dimension, exactly \
      as the line-adjusted objective predicts)@."

(* ------------------------------------------------------------------ *)
(* E16: virtual-to-physical placement (Section 4, Placement)           *)
(* ------------------------------------------------------------------ *)

let e16 () =
  header "E16" "Placement: mapping the tile grid onto the 2-D mesh";
  row4 "grid on mesh" "linear" "best strategy" "shuffled";
  List.iter
    (fun (grid, nprocs) ->
      let mesh = Mesh.mesh ~nprocs in
      let cost s =
        Placement_map.neighbor_hop_cost ~grid ~mesh
          (Placement_map.permutation s ~grid ~mesh)
      in
      let _, _, best_cost = Placement_map.best ~grid ~mesh in
      row4
        (Printf.sprintf "%s / %d procs"
           (String.concat "x" (List.map soi (Array.to_list grid)))
           nprocs)
        (soi (cost Placement_map.Linear))
        (soi best_cost)
        (soi (cost (Placement_map.Shuffled 42))))
    [
      ([| 4; 4 |], 16);
      ([| 16; 1 |], 16);
      ([| 8; 8 |], 64);
      ([| 4; 4; 4 |], 64);
      ([| 2; 2; 16 |], 64);
    ];
  pf "(neighbour-hop totals; the paper calls placement 'a smaller effect \
      that may become important in very large machines' - the gap to the \
      shuffled mapping quantifies that effect)@."

(* ------------------------------------------------------------------ *)
(* E17: end-to-end execution-time estimates                            *)
(* ------------------------------------------------------------------ *)

let e17 () =
  header "E17"
    "Estimated execution time: the measurement Section 4 deferred";
  let params = Timing.alewife_like in
  pf "latency model: %a@." Timing.pp_params params;
  row4 "program" "naive tile" "optimized tile" "speedup";
  List.iter
    (fun (name, nest, nprocs, naive) ->
      let cost = Cost.of_nest nest in
      let good = (Rectangular.optimize cost ~nprocs).Rectangular.tile in
      let run tile =
        let sched = Codegen.make nest tile ~nprocs in
        let placement = Data_partition.aligned sched cost in
        (Sim.run sched
           {
             Sim.default with
             Sim.topology = Sim.Mesh2d;
             placement = Some placement;
           })
          .Sim.stats
      in
      let t_naive = Timing.cycles (run naive) ~nprocs params in
      let t_good = Timing.cycles (run good) ~nprocs params in
      row4 name
        (Printf.sprintf "%.0f" t_naive)
        (Printf.sprintf "%.0f" t_good)
        (Printf.sprintf "%.2fx" (t_naive /. t_good)))
    [
      ( "example2 (P=100)",
        Loopart.Programs.example2 (),
        100,
        Tile.rect [| 10; 10 |] );
      ( "matmul (P=16)",
        Loopart.Programs.matmul ~n:24 (),
        16,
        Tile.rect [| 24; 24; 2 |] (* k split: worst for reuse *) );
      ( "relax_inplace (P=16)",
        Loopart.Programs.relax_inplace ~n:65 ~steps:3 (),
        16,
        Tile.rect [| 4; 64 |] );
      ( "example8_inplace (P=8)",
        Loopart.Programs.example8_inplace ~n:27 ~steps:3 (),
        8,
        Tile.rect [| 3; 24; 12 |] );
    ];
  pf "(cycles per processor under the latency model; the optimized \
      partitions win end to end, closing the loop the paper left open)@."

(* ------------------------------------------------------------------ *)
(* E18: compile-time tiles vs run-time scheduling                      *)
(* ------------------------------------------------------------------ *)

let e18 () =
  header "E18"
    "Compile-time tiles vs run-time scheduling (the Section 1 argument)";
  let params = Timing.alewife_like in
  let nprocs = 16 in
  List.iter
    (fun (name, nest) ->
      let a = Loopart.Driver.analyze ~nprocs nest in
      pf "@.%s:@." name;
      row4 "policy" "misses" "coh misses" "est. cycles";
      List.iter
        (fun (policy, p) ->
          let work = Loopart.Driver.work a p in
          let r = Sim.run_work nest ~nprocs work Sim.default in
          row4 policy
            (soi r.Sim.stats.Stats.misses)
            (soi r.Sim.stats.Stats.coherence_misses)
            (Printf.sprintf "%.0f" (Timing.cycles r.Sim.stats ~nprocs params)))
        [
          ("compile-time tiles", Loopart.Driver.Tiled);
          ("guided self-sched [1]", Loopart.Driver.Guided);
          ("block-cyclic (8)", Loopart.Driver.Block_cyclic 8);
          ("cyclic", Loopart.Driver.Cyclic);
        ])
    [
      ("relax_inplace 64x64 (3 steps)",
       Loopart.Programs.relax_inplace ~n:65 ~steps:3 ());
      ("matmul 24^3", Loopart.Programs.matmul ~n:24 ());
    ];
  pf "@.(run-time policies balance load but scatter each processor's \
      iterations across the space, inflating footprints and coherence - \
      the paper's argument for compile-time partitioning, quantified)@."

(* ------------------------------------------------------------------ *)
(* E19: finite caches and capacity blocking                            *)
(* ------------------------------------------------------------------ *)

let e19 () =
  header "E19" "Finite caches: capacity blocking (Section 2.2's remark)";
  let nest = Loopart.Programs.matmul ~n:24 () in
  let cost = Cost.of_nest nest in
  let tile = (Rectangular.optimize cost ~nprocs:16).Rectangular.tile in
  let sched = Codegen.make nest tile ~nprocs:16 in
  let geometry = Cache.Finite { sets = 32; ways = 4 } (* 128 lines *) in
  pf "tile %s has working set %d elements; cache holds 128@."
    (Tile.to_string tile) (Capacity.footprint cost tile);
  let sub = Capacity.subtile cost tile ~capacity:128 in
  pf "capacity blocking picks subtile %s (working set %d)@."
    (Tile.to_string sub) (Capacity.footprint cost sub);
  row4 "execution order" "misses" "replacement" "miss rate %";
  List.iter
    (fun (name, work) ->
      let r =
        Sim.run_work nest ~nprocs:16 work { Sim.default with Sim.geometry }
      in
      row4 name
        (soi r.Sim.stats.Stats.misses)
        (soi r.Sim.stats.Stats.replacement_misses)
        (Printf.sprintf "%.1f" (100.0 *. Stats.miss_rate r.Sim.stats)))
    [
      ("whole tile (thrashes)", Scheduling.of_tiles (Codegen.tiles sched));
      ("blocked by subtile", Capacity.blocked_iterations sched ~subtile:sub);
    ];
  pf "(the aspect ratio is unchanged - only the unit of execution \
      shrinks, exactly as Section 2.2 prescribes)@."

(* ------------------------------------------------------------------ *)
(* E20: measured execution on OCaml 5 domains - the machine run that   *)
(* Section 4 deferred to Alewife hardware                              *)
(* ------------------------------------------------------------------ *)

let e20 () =
  header "E20"
    "Measured execution on OCaml 5 domains (the deferred Section 4 run)";
  let open Loopart in
  let rows = ref [] in
  let exec ?steps ~policy nest nprocs =
    let a = Driver.analyze ~nprocs nest in
    let r =
      Driver.execute
        ~config:{ Driver.default_exec_config with policy; repeats = 2; steps }
        a
    in
    let iterations =
      Array.fold_left
        (fun acc (d : Runtime.Measure.domain_stat) -> acc + d.iterations)
        0 r.per_domain
    in
    rows :=
      row ~experiment:"E20" ~name:r.name ~path:r.policy ~nprocs:r.nprocs
        ~steps:r.steps
        [
          ("wall_seconds", Float r.wall_seconds);
          ( "ns_per_iter",
            Float
              (if iterations = 0 then 0.0
               else 1e9 *. r.wall_seconds /. float_of_int iterations) );
          ("max_footprint", Int (Runtime.Measure.max_footprint r));
          ("distinct_total", Int r.distinct_total);
          ( "predicted_per_domain",
            Option.fold ~none:Json.Null
              ~some:(fun v -> Json.Int v)
              r.predicted_per_domain );
          ( "barriers",
            String
              (match r.barriers with
              | Runtime.Measure.Barrier_free -> "none"
              | Every_step _ -> "every step") );
        ]
      :: !rows;
    r
  in
  let workloads =
    [
      ("example2", Programs.example2 (), None);
      ("stencil5", Programs.stencil5 ~n:65 (), Some 2);
      ("matmul", Programs.matmul ~n:24 (), None);
    ]
  in
  pf "optimized tile at P in {1,2,4,8}: measured vs predicted footprint@.";
  row4 "nest / P" "wall ms" "max footprint" "Thm 2/4 predicts";
  List.iter
    (fun (name, nest, steps) ->
      List.iter
        (fun p ->
          let r = exec ?steps ~policy:Driver.Tiled nest p in
          row4
            (Printf.sprintf "%s / %d" name p)
            (Printf.sprintf "%.2f" (1e3 *. r.Runtime.Measure.wall_seconds))
            (soi (Runtime.Measure.max_footprint r))
            (match r.Runtime.Measure.predicted_per_domain with
            | Some v -> soi v
            | None -> "-"))
        [ 1; 2; 4; 8 ])
    workloads;
  pf "@.stencil5 at P = 8: compile-time tiles vs run-time schedulers@.";
  row4 "policy" "wall ms" "max footprint" "distinct total";
  let nest = Programs.stencil5 ~n:65 () in
  let footprint_of policy =
    let r = exec ~steps:2 ~policy nest 8 in
    row4 r.Runtime.Measure.policy
      (Printf.sprintf "%.2f" (1e3 *. r.Runtime.Measure.wall_seconds))
      (soi (Runtime.Measure.max_footprint r))
      (soi r.Runtime.Measure.distinct_total);
    Runtime.Measure.max_footprint r
  in
  let tiled = footprint_of Driver.Tiled in
  let cyclic = footprint_of Driver.Cyclic in
  ignore (footprint_of (Driver.Block_cyclic 8));
  ignore (footprint_of Driver.Guided);
  ignore (footprint_of (Driver.Work_steal 8));
  pf "tiled max footprint %d vs cyclic %d - tiled smaller: %b@." tiled cyclic
    (tiled < cyclic);
  pf "(run-time self-scheduling balances load but touches nearly the whole@.";
  pf " grid per processor - the introduction's case for compile-time tiles)@.";
  write_rows "BENCH_runtime.json" (List.rev !rows)

(* ------------------------------------------------------------------ *)
(* E21: fault-tolerance tax - heartbeat/watchdog overhead on a         *)
(* fault-free run, and recovery latency under injected faults          *)
(* ------------------------------------------------------------------ *)

let e21 () =
  header "E21"
    "Fault-tolerance: watchdog overhead (fault-free) and recovery latency";
  let open Loopart in
  let nest = Programs.stencil5 ~n:65 () in
  let nprocs = 8 and steps = 2 and reps = 11 in
  let a = Driver.analyze ~nprocs nest in
  let exec_config =
    { Driver.default_exec_config with Driver.steps = Some steps }
  in
  (* Baseline: the resilient run's work without resilience - the
     schedule's whole tiles on work-stealing queues, every box through
     the kernel - one full job including domain spawn and operand
     allocation, the same costs the resilient wall clock carries.  Like
     Resilient.execute, the kernel plan is built before the clock
     starts. *)
  let compiled = Runtime.Exec.compile nest in
  let tiles = Codegen.tiles (Driver.schedule a) in
  let work =
    Runtime.Exec.Tiled
      {
        tiles = Array.map snd tiles;
        owners = Array.map fst tiles;
        steal = true;
      }
  in
  let box = Runtime.Kernel.run_box (Runtime.Kernel.plan compiled) in
  let run_plain () =
    let t0 = Runtime.Mclock.now () in
    Runtime.Pool.with_pool nprocs (fun pool ->
        ignore
          (Runtime.Exec.time_with ~box ~trace:Runtime.Trace.disabled pool
             compiled work ~steps ~repeats:1));
    Runtime.Mclock.now () -. t0
  in
  let resilient ?plan () =
    let plan =
      Option.map
        (fun s ->
          match Runtime.Fault.of_string s with
          | Ok p -> p
          | Error e -> invalid_arg e)
        plan
    in
    Driver.execute_resilient ~config:exec_config
      ~resilience:
        { Runtime.Resilient.default_config with Runtime.Resilient.deadline_ms = 100 }
      ?plan a
    |> fst
  in
  let wall (r : Runtime.Report.t) = r.Runtime.Report.total_wall_seconds in
  let run_fault_free () = wall (resilient ()) in
  let last_crash = ref None in
  let run_crash () =
    let r = resilient ~plan:"crash" () in
    last_crash := Some r;
    wall r
  in
  (* A job here is dominated by spawning/joining nprocs domains, so
     scheduler drift between separately-timed blocks dwarfs the costs we
     want to isolate.  Interleave the samples (plain, resilient, crash,
     plain, ...) so drift hits every scenario equally, then take
     per-scenario medians and quartiles. *)
  ignore (run_plain ());
  ignore (run_fault_free ());
  ignore (run_crash ());
  let ps = Array.make reps 0.0
  and fs = Array.make reps 0.0
  and cs = Array.make reps 0.0 in
  for i = 0 to reps - 1 do
    ps.(i) <- run_plain ();
    fs.(i) <- run_fault_free ();
    cs.(i) <- run_crash ()
  done;
  (* A difference of medians is a result only when the two scenarios'
     interquartile ranges do not overlap; otherwise it is reported as
     null with the reason. *)
  let beyond_spread what treated base =
    let t1, t, t3 = quartiles treated and b1, b, b3 = quartiles base in
    if t1 > b3 || t3 < b1 then Ok (t -. b)
    else
      Error
        (Printf.sprintf
           "%s: medians %.6g s vs %.6g s differ by less than the \
            interquartile spreads of %d interleaved samples"
           what t b reps)
  in
  let result_fields name = function
    | Ok x -> [ (name, Json.Float x) ]
    | Error reason ->
        [ (name, Json.Null); (name ^ "_reason", Json.String reason) ]
  in
  let _, plain, _ = quartiles ps in
  let _, fault_free, _ = quartiles fs in
  let overhead_pct =
    Result.map
      (fun d -> 100.0 *. d /. plain)
      (beyond_spread "resilient vs plain" fs ps)
  in
  pf "stencil5 n=65, P=%d, %d steps (1 warmup each + per-side medians of %d \
      interleaved full jobs incl. spawn)@."
    nprocs steps reps;
  pf "  plain runtime            %8.2f ms@." (1e3 *. plain);
  pf "  resilient, no faults     %8.2f ms  (%s, target < 5%% on multi-core \
      hosts)@."
    (1e3 *. fault_free)
    (match overhead_pct with
    | Ok x -> Printf.sprintf "overhead %+.1f%%" x
    | Error _ -> "no overhead beyond the spread");
  if host_cores < nprocs then
    pf "  (host exposes %d core(s) for %d domains: end-of-step gate waits \
        serialize,@.   which inflates the gate's share of the wall \
        clock)@."
      host_cores nprocs;
  let crash = Option.get !last_crash in
  let _, crash_wall, _ = quartiles cs in
  (* Recovery only adds work, so a crash job measured faster than a
     fault-free one says the host's noise, not recovery, decided it. *)
  let crash_extra =
    match beyond_spread "crash vs fault-free" cs fs with
    | Ok x when x < 0.0 ->
        Error
          "crash jobs ran faster than fault-free ones beyond the spread: \
           recovery cost is below what this host resolves"
    | r -> r
  in
  pf "  one crash, tile recovery %8.2f ms  (%s, %d tile(s) re-executed, \
      completed %b, covered once %b)@."
    (1e3 *. crash_wall)
    (match crash_extra with
    | Ok x -> Printf.sprintf "%+.2f ms vs fault-free" (1e3 *. x)
    | Error _ -> "no difference beyond the spread")
    (Runtime.Report.reexecuted_tiles crash)
    crash.Runtime.Report.completed crash.Runtime.Report.covered_exactly_once;
  let stall = resilient ~plan:"stall:10000" () in
  let detect =
    match stall.Runtime.Report.attempts with
    | first :: _ -> first.Runtime.Report.wall_seconds
    | [] -> nan
  in
  pf "  10 s stall, 100 ms deadline: detected in %.2f ms, job completed %b \
      in %.2f ms@."
    (1e3 *. detect) stall.Runtime.Report.completed (1e3 *. wall stall);
  let e21_row path =
    row ~experiment:"E21" ~name:"stencil5" ~path ~nprocs ~steps
  in
  write_rows "BENCH_resilience.json"
    [
      e21_row "plain" (spread_fields ps);
      e21_row "resilient-fault-free"
        (spread_fields fs @ result_fields "overhead_pct" overhead_pct);
      e21_row "resilient-crash"
        (spread_fields cs
        @ result_fields "recovery_extra_seconds" crash_extra
        @ [
            ("tiles_reexecuted", Int (Runtime.Report.reexecuted_tiles crash));
            ("completed", Bool crash.completed);
            ("covered_exactly_once", Bool crash.covered_exactly_once);
          ]);
      e21_row "resilient-stall"
        [
          ("deadline_ms", Int 100);
          ("detect_seconds", Float detect);
          ("wall_seconds", Float (wall stall));
          ("completed", Bool stall.completed);
        ];
    ]

(* ------------------------------------------------------------------ *)
(* E22: kernel lowering - strided incremental-address loops vs the     *)
(* point interpreter, sequential, across domain counts, and per box    *)
(* under run-time claims                                               *)
(* ------------------------------------------------------------------ *)

let e22_scale = ref 4
let e22_trials = ref 3

let e22 () =
  let scale = max 1 !e22_scale and trials = max 1 !e22_trials in
  header "E22"
    (Printf.sprintf
       "Kernel lowering: specialized strided loops vs the interpreter \
        (scale %d, median of %d)"
       scale trials);
  let open Loopart in
  let rows = ref [] in
  let measure ~name ~nest ~steps ~nprocs ~path =
    let a = Driver.analyze ~nprocs nest in
    let sched = Driver.schedule a in
    let compiled = Runtime.Exec.compile nest in
    let iterations = steps * Array.fold_left ( * ) 1 (Nest.extents nest) in
    let samples =
      Runtime.Pool.with_pool nprocs (fun pool ->
          let once =
            match path with
            | `Interp ->
                let work = Scheduling.of_tiles (Codegen.tiles sched) in
                fun () ->
                  let w, _, _ =
                    Runtime.Exec.time pool compiled work ~steps ~repeats:1
                  in
                  w
            | `Kernel force_generic ->
                let plan = Runtime.Kernel.plan ~force_generic compiled in
                let boxes = Scheduling.of_tiles (Codegen.tiles sched) in
                fun () ->
                  let w, _, _ =
                    Runtime.Kernel.time pool plan ~boxes ~steps ~repeats:1
                  in
                  w
            | `Dynamic (chunk, kernel) ->
                (* The same claims through either body: the difference
                   is what each pays per box. *)
                let space = Nest.bounds nest in
                let work =
                  Runtime.Exec.Dynamic
                    { space; chunk = (fun ~remaining:_ -> chunk) }
                in
                let box =
                  if kernel then
                    Runtime.Kernel.run_box (Runtime.Kernel.plan compiled)
                  else Runtime.Exec.run_box compiled
                in
                fun () ->
                  let w, _, _ =
                    Runtime.Exec.time_with ~box ~trace:Runtime.Trace.disabled
                      pool compiled work ~steps ~repeats:1
                  in
                  w
          in
          ignore (once ());
          Array.init trials (fun _ -> once ()))
    in
    let _, wall, _ = quartiles samples in
    let ns_per_iter = 1e9 *. wall /. float_of_int iterations in
    let path_name =
      match path with
      | `Interp -> "interpreter"
      | `Kernel true -> "kernel-generic"
      | `Kernel false -> "kernel"
      | `Dynamic (chunk, kernel) ->
          Printf.sprintf "%s-%s"
            (if kernel then "kernel" else "interpreter")
            (if chunk = 1 then "cyclic" else Printf.sprintf "block%d" chunk)
    in
    rows :=
      row ~experiment:"E22" ~name ~path:path_name ~nprocs ~steps
        ([ ("scale", Json.Int scale); ("iterations", Int iterations) ]
        @ spread_fields samples
        @ [ ("ns_per_iter", Float ns_per_iter) ])
      :: !rows;
    (wall, ns_per_iter)
  in
  let workloads =
    [
      ("stencil5", Programs.stencil5 ~n:(128 * scale) (), 2);
      ("matmul", Programs.matmul ~n:(64 * scale) (), 1);
      (* 9 reads, one write: the array-cursor loop. *)
      ("conv3x3", Programs.conv3x3 ~n:(128 * scale) (), 1);
    ]
  in
  pf "host exposes %d core%s (Domain.recommended_domain_count)@." host_cores
    (if host_cores = 1 then "" else "s");
  List.iter
    (fun (name, nest, steps) ->
      pf "@.--- %s, %d iterations x %d step%s ---@." name
        (Array.fold_left ( * ) 1 (Nest.extents nest))
        steps
        (if steps = 1 then "" else "s");
      pf "%-24s %10s %14s %10s@." "path / P" "wall ms" "ns/iter" "speedup";
      let measure_row ~nprocs ~path label base =
        let wall, ns = measure ~name ~nest ~steps ~nprocs ~path in
        pf "%-24s %10.2f %14.2f %10s@." label (1e3 *. wall) ns
          (match base with
          | Some b -> Printf.sprintf "%.2fx" (b /. wall)
          | None -> "-");
        wall
      in
      let interp1 = measure_row ~nprocs:1 ~path:`Interp "interpreter / 1" None in
      (* [force_generic] only replaces a specialized shape: on a nest
         the kernel already runs generically, both rows would time the
         same code. *)
      let compiled = Runtime.Exec.compile nest in
      let shape force_generic =
        Runtime.Kernel.shape (Runtime.Kernel.plan ~force_generic compiled)
      in
      let generic1 =
        if shape true <> shape false then
          Some
            (measure_row ~nprocs:1 ~path:(`Kernel true) "kernel-generic / 1"
               (Some interp1))
        else None
      in
      let kernel1 =
        measure_row ~nprocs:1 ~path:(`Kernel false) "kernel / 1" (Some interp1)
      in
      let kernel8 =
        measure_row ~nprocs:8 ~path:(`Kernel false) "kernel / 8" (Some kernel1)
      in
      (match generic1 with
      | Some generic1 ->
          pf "generic strided loop vs interpreter: %.2fx@."
            (interp1 /. generic1)
      | None ->
          pf "no kernel-generic row: the kernel runs the %s shape already@."
            (shape false));
      pf "tiled 8-domain vs 1-domain (kernel): %.2fx%s@." (kernel1 /. kernel8)
        (if host_cores = 1 then
           " - single-core host, parallel speedup is not expected here"
         else "");
      (* Run-time claims cut the space into short boxes (1 point each
         under cyclic), so these rows price the kernel's per-box set-up
         against the interpreter's. *)
      List.iter
        (fun (chunk, label) ->
          let interp =
            measure_row ~nprocs:2 ~path:(`Dynamic (chunk, false))
              (Printf.sprintf "interpreter %s / 2" label) None
          in
          ignore
            (measure_row ~nprocs:2 ~path:(`Dynamic (chunk, true))
               (Printf.sprintf "kernel %s / 2" label) (Some interp)))
        [ (1, "cyclic"); (16, "block:16") ])
    workloads;
  write_rows "BENCH_kernels.json" (List.rev !rows)

(* ------------------------------------------------------------------ *)
(* --profile: traced runs of E22's stencil5 and matmul, broken down   *)
(* into per-phase busy time per domain, dumped next to the            *)
(* BENCH_*.json files                                                 *)
(* ------------------------------------------------------------------ *)

let profile_requested = ref false

let run_profile () =
  header "PROFILE" "Per-phase runtime breakdown (traced runs)";
  let open Loopart in
  let nprocs = min 8 (max 2 host_cores) in
  let kinds =
    Runtime.Trace.
      [ Tile; Exec; Barrier; Chunk; Steal; Watchdog; Reexec; Step ]
  in
  let counters =
    Runtime.Trace.
      [
        Tiles_run;
        Steals;
        Backoff_yields;
        Elements_touched;
        Faults_injected;
        Faults_detected;
      ]
  in
  let one ~name ~nest ~steps =
    let trace = Runtime.Trace.create ~domains:nprocs () in
    let config =
      {
        Driver.default_exec_config with
        Driver.steps = Some steps;
        repeats = 1;
        trace = Some trace;
      }
    in
    let a = Driver.analyze ~nprocs nest in
    ignore (Driver.execute ~config a);
    let s = Runtime.Trace.summary trace in
    pf "@.--- %s on %d domains (kernel path) ---@." name nprocs;
    pf "%a@." Runtime.Trace.pp_summary s;
    let events = Runtime.Trace.events trace in
    (* Per-domain busy seconds by span kind, from the raw events. *)
    let busy p k =
      List.fold_left
        (fun acc (e : Runtime.Trace.event) ->
          if e.domain = p && e.kind = k then acc +. e.dur else acc)
        0.0 events
    in
    let domain_json p =
      Json.Obj
        (("domain", Json.Int p)
         :: ( "busy_seconds",
              Obj
                (List.filter_map
                   (fun k ->
                     let b = busy p k in
                     if b > 0.0 then
                       Some (Runtime.Trace.kind_name k, Json.Float b)
                     else None)
                   kinds) )
         :: List.map
              (fun c ->
                ( Runtime.Trace.counter_name c,
                  Json.Int (Runtime.Trace.counters trace p c) ))
              counters)
    in
    row ~experiment:"profile" ~name ~path:"kernel" ~nprocs ~steps
      [
        ("summary", Runtime.Trace.json_of_summary s);
        ("domains", List (List.init nprocs domain_json));
      ]
  in
  let items =
    [
      one ~name:"stencil5" ~nest:(Programs.stencil5 ~n:128 ()) ~steps:2;
      one ~name:"matmul" ~nest:(Programs.matmul ~n:64 ()) ~steps:1;
    ]
  in
  write_rows "BENCH_profile.json" items

(* ------------------------------------------------------------------ *)
(* E13: Bechamel timings of the analysis itself                        *)
(* ------------------------------------------------------------------ *)

let bechamel_tests () =
  let open Bechamel in
  let analysis name nest nprocs =
    Test.make ~name
      (Staged.stage (fun () -> ignore (Loopart.Driver.analyze ~nprocs nest)))
  in
  [
    analysis "E1 analyze example2" (Loopart.Programs.example2 ()) 100;
    analysis "E2 analyze example3" (Loopart.Programs.example3 ()) 10;
    analysis "E5 analyze example8" (Loopart.Programs.example8 ~n:36 ()) 8;
    analysis "E6 analyze example9" (Loopart.Programs.example9 ()) 36;
    analysis "E7 analyze example10" (Loopart.Programs.example10 ()) 36;
    analysis "E11 analyze matmul" (Loopart.Programs.matmul ()) 16;
    Test.make ~name:"E9 classify stencil27"
      (Staged.stage (fun () ->
           ignore (Uniform.classify_nest (Loopart.Programs.stencil27 ()))));
    Test.make ~name:"E12 hnf 4x4"
      (Staged.stage (fun () ->
           ignore
             (Hnf.row_hnf
                (Imat.of_rows
                   [
                     [ 4; 6; 1; 0 ];
                     [ 2; 5; -3; 2 ];
                     [ 0; 7; 2; 9 ];
                     [ 1; 1; 1; 1 ];
                   ]))));
  ]

let e13 () =
  header "E13" "Compile-time cost of the analysis (Bechamel)";
  let open Bechamel in
  let open Toolkit in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.25) ~stabilize:false ()
  in
  let test = Test.make_grouped ~name:"analysis" (bechamel_tests ()) in
  let raw = Benchmark.all cfg instances test in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name r acc -> (name, r) :: acc) results [] in
  pf "%-36s %16s@." "analysis" "ns / run";
  List.iter
    (fun (name, result) ->
      match Analyze.OLS.estimates result with
      | Some [ est ] -> pf "%-36s %16.0f@." name est
      | Some _ | None -> pf "%-36s %16s@." name "-")
    (List.sort compare rows)

(* ------------------------------------------------------------------ *)

let experiments =
  [
    ("E1", e1);
    ("E2", e2);
    ("E3", e3);
    ("E4", e4);
    ("E5", e5);
    ("E6", e6);
    ("E7", e7);
    ("E8", e8);
    ("E9", e9);
    ("E10", e10);
    ("E11", e11);
    ("E12", e12);
    ("E13", e13);
    ("E14", e14);
    ("E15", e15);
    ("E16", e16);
    ("E17", e17);
    ("E18", e18);
    ("E19", e19);
    ("E20", e20);
    ("E21", e21);
    ("E22", e22);
  ]

let () =
  (* Flags anywhere on the command line; remaining words select
     experiments.  --scale and --trials parameterize E22. *)
  let rec parse acc = function
    | [] -> List.rev acc
    | "--scale" :: v :: rest ->
        (match int_of_string_opt v with
        | Some s when s >= 1 -> e22_scale := s
        | Some _ | None -> pf "ignoring bad --scale %s@." v);
        parse acc rest
    | "--trials" :: v :: rest ->
        (match int_of_string_opt v with
        | Some t when t >= 1 -> e22_trials := t
        | Some _ | None -> pf "ignoring bad --trials %s@." v);
        parse acc rest
    | "--profile" :: rest ->
        profile_requested := true;
        parse acc rest
    | id :: rest -> parse (id :: acc) rest
  in
  let rest = parse [] (List.tl (Array.to_list Sys.argv)) in
  let selected =
    match rest with
    | [] when !profile_requested -> []  (* --profile alone: just profile *)
    | [] -> List.map fst experiments
    | ids -> ids
  in
  List.iter
    (fun id ->
      match List.assoc_opt id experiments with
      | Some f -> f ()
      | None -> pf "unknown experiment %s@." id)
    selected;
  if !profile_requested then run_profile ();
  pf "@.done.@."
