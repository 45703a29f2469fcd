(* Tests for the footprint machinery: classification into uniformly
   intersecting sets (Definitions 4-6, Appendix B), spread vectors
   (Definition 8, footnote 2), and the size engines (Equation 2,
   Theorems 1-5), all validated against exhaustive enumeration. *)

open Intmath
open Matrixkit
open Loopir
open Footprint

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let rat = Alcotest.testable Rat.pp Rat.equal

let aff rows off = Affine.of_rows rows off

(* ------------------------------------------------------------------ *)
(* Classification: Definitions 4-6 and Appendix B                      *)
(* ------------------------------------------------------------------ *)

let test_intersecting_basic () =
  (* From Definition 4's text: A(i+c1, j+c2) and A(j+c3, i+c4) intersect
     even though they are not uniformly generated. *)
  let a = aff [ [ 1; 0 ]; [ 0; 1 ] ] [ 3; 7 ] in
  let b = aff [ [ 0; 1 ]; [ 1; 0 ] ] [ -2; 5 ] in
  checkb "transposed pair intersects" true (Uniform.intersecting a b);
  checkb "but is not uniformly generated" false
    (Uniform.uniformly_generated a b);
  (* A[2i] and A[2i+1] never intersect. *)
  let e = aff [ [ 2 ] ] [ 0 ] and o = aff [ [ 2 ] ] [ 1 ] in
  checkb "A[2i] vs A[2i+1]" false (Uniform.intersecting e o)

let test_appendix_b_uniformly_intersecting () =
  (* Set 1: A[i,j], A[i+1,j-3], A[i,j+4]. *)
  let g = [ [ 1; 0 ]; [ 0; 1 ] ] in
  let r1 = aff g [ 0; 0 ] and r2 = aff g [ 1; -3 ] and r3 = aff g [ 0; 4 ] in
  checkb "set1 12" true (Uniform.uniformly_intersecting r1 r2);
  checkb "set1 13" true (Uniform.uniformly_intersecting r1 r3);
  checkb "set1 23" true (Uniform.uniformly_intersecting r2 r3)

let test_appendix_b_negative_pairs () =
  let id = [ [ 1; 0 ]; [ 0; 1 ] ] in
  (* 1. A[i,j] vs A[2i,j] *)
  checkb "A[i,j] vs A[2i,j]" false
    (Uniform.uniformly_intersecting
       (aff id [ 0; 0 ])
       (aff [ [ 2; 0 ]; [ 0; 1 ] ] [ 0; 0 ]));
  (* 2. A[i,j] vs A[2i,2j] *)
  checkb "A[i,j] vs A[2i,2j]" false
    (Uniform.uniformly_intersecting
       (aff id [ 0; 0 ])
       (aff [ [ 2; 0 ]; [ 0; 2 ] ] [ 0; 0 ]));
  (* 3. A[j,2,4] vs A[j,3,4]: uniformly generated, non-intersecting. *)
  let g3 = [ [ 0; 0; 0 ]; [ 1; 0; 0 ] ] in
  let p = aff g3 [ 0; 2; 4 ] and q = aff g3 [ 0; 3; 4 ] in
  checkb "A[j,2,4] vs A[j,3,4] uniformly generated" true
    (Uniform.uniformly_generated p q);
  checkb "A[j,2,4] vs A[j,3,4] not intersecting" false
    (Uniform.intersecting p q);
  (* 4. A[2i] vs A[2i+1] *)
  checkb "A[2i] vs A[2i+1]" false
    (Uniform.uniformly_intersecting (aff [ [ 2 ] ] [ 0 ]) (aff [ [ 2 ] ] [ 1 ]));
  (* 5. A[i+2,2i+4] vs A[i+3,2i+8]: delta (1,4) needs x=1 and 2x=4. *)
  let g5 = [ [ 1; 2 ] ] in
  checkb "A[i+2,2i+4] vs A[i+3,2i+8]" false
    (Uniform.uniformly_intersecting (aff g5 [ 2; 4 ]) (aff g5 [ 3; 8 ]))

let test_classify_example10 () =
  (* Example 10: C(i,2i,i+2j-1) and C(i,2i,i+2j+1) are one class;
     C(i+1,2i+2,i+2j+1) is its own class despite equal G. *)
  let gc = [ [ 1; 2; 1 ]; [ 0; 0; 2 ] ] in
  let refs =
    [
      Reference.read "C" (aff gc [ 0; 0; -1 ]);
      Reference.read "C" (aff gc [ 1; 2; 1 ]);
      Reference.read "C" (aff gc [ 0; 0; 1 ]);
    ]
  in
  let classes = Uniform.classify refs in
  check "two classes" 2 (List.length classes);
  let sizes = List.sort compare (List.map (fun c -> List.length c.Uniform.refs) classes) in
  Alcotest.(check (list int)) "sizes 1 and 2" [ 1; 2 ] sizes

let test_classify_different_arrays () =
  (* Appendix B non-example 6: A[i,j] vs B[i,j]. *)
  let id = [ [ 1; 0 ]; [ 0; 1 ] ] in
  let refs =
    [ Reference.read "A" (aff id [ 0; 0 ]); Reference.read "B" (aff id [ 0; 0 ]) ]
  in
  check "never merged across arrays" 2 (List.length (Uniform.classify refs))

let test_classify_order_preserved () =
  let id = [ [ 1; 0 ]; [ 0; 1 ] ] in
  let refs =
    [
      Reference.write "A" (aff id [ 0; 0 ]);
      Reference.read "B" (aff id [ 0; 0 ]);
      Reference.read "A" (aff id [ 1; 1 ]);
    ]
  in
  let classes = Uniform.classify refs in
  check "two classes" 2 (List.length classes);
  (match classes with
  | a :: b :: _ ->
      Alcotest.(check string) "A first" "A" a.Uniform.array_name;
      Alcotest.(check string) "B second" "B" b.Uniform.array_name;
      check "A class has both refs" 2 (List.length a.Uniform.refs)
  | _ -> Alcotest.fail "expected two classes");
  checkb "write detected" true
    (Uniform.has_write (List.hd classes))

(* ------------------------------------------------------------------ *)
(* Spread vectors                                                      *)
(* ------------------------------------------------------------------ *)

let spread_cls offsets =
  let g = [ [ 1; 0 ]; [ 0; 1 ] ] in
  let refs = List.map (fun o -> Reference.read "A" (aff g o)) offsets in
  {
    Uniform.array_name = "A";
    g = Imat.of_rows g;
    refs;
    offsets = List.map (fun o -> Ivec.of_list o) offsets;
  }

let test_spread () =
  (* Example 8's B class has spread (2,3,4); here a 2-D variant. *)
  let cls = spread_cls [ [ -1; 0 ]; [ 0; 1 ]; [ 1; -2 ] ] in
  Alcotest.(check (array int)) "max-min" [| 2; 3 |] (Uniform.spread cls)

let test_cumulative_spread () =
  (* Footnote 2: sum of |offset - median| per dimension. *)
  let cls = spread_cls [ [ -1; 0 ]; [ 0; 1 ]; [ 1; -2 ] ] in
  (* dim 0: offsets -1,0,1, median 0 -> 2; dim 1: -2,0,1, median 0 -> 3. *)
  Alcotest.(check (array int))
    "cumulative" [| 2; 3 |]
    (Uniform.cumulative_spread cls);
  (* Four references make the two spreads differ. *)
  let cls4 = spread_cls [ [ 0; 0 ]; [ 1; 0 ]; [ 2; 0 ]; [ 3; 0 ] ] in
  Alcotest.(check (array int)) "max-min 4 refs" [| 3; 0 |] (Uniform.spread cls4);
  (* median (lower) = 1: |0-1|+|1-1|+|2-1|+|3-1| = 4. *)
  Alcotest.(check (array int))
    "cumulative 4 refs" [| 4; 0 |]
    (Uniform.cumulative_spread cls4)

(* ------------------------------------------------------------------ *)
(* Theorem 1 conditions                                                *)
(* ------------------------------------------------------------------ *)

let test_theorem1_condition () =
  checkb "unimodular qualifies" true
    (Size.theorem1_applies (Imat.of_rows [ [ 1; 0 ]; [ 1; 1 ] ]));
  checkb "det -2 does not" false
    (Size.theorem1_applies (Imat.of_rows [ [ 1; 1 ]; [ 1; -1 ] ]))

(* ------------------------------------------------------------------ *)
(* Reduction pipeline (3.4.1)                                          *)
(* ------------------------------------------------------------------ *)

let test_reduce_example7 () =
  (* A[i, 2i, i+j]: keep columns 0 and 2; the reduced G is unimodular. *)
  let g = Imat.of_rows [ [ 1; 2; 1 ]; [ 0; 0; 1 ] ] in
  let red = Size.reduce ~g ~spread:[| 0; 0; 0 |] in
  Alcotest.(check (list int)) "kept cols" [ 0; 2 ] red.Size.kept_cols;
  checkb "full row rank" true red.Size.full_row_rank;
  checkb "reduced unimodular" true (Imat.is_unimodular red.Size.g_reduced)

let test_reduce_zero_rows () =
  (* A[i,k] in a triple nest: row j drops out. *)
  let g = Imat.of_rows [ [ 1; 0 ]; [ 0; 0 ]; [ 0; 1 ] ] in
  let red = Size.reduce ~g ~spread:[| 0; 0 |] in
  Alcotest.(check (list int)) "kept rows" [ 0; 2 ] red.Size.kept_rows;
  checkb "full row rank after drop" true red.Size.full_row_rank

let test_reduce_projection () =
  (* A[i+j]: rows dependent even after reduction. *)
  let g = Imat.of_rows [ [ 1 ]; [ 1 ] ] in
  let red = Size.reduce ~g ~spread:[| 0 |] in
  checkb "not full row rank" false red.Size.full_row_rank

(* ------------------------------------------------------------------ *)
(* Rectangular sizes vs exhaustive enumeration                         *)
(* ------------------------------------------------------------------ *)

let exact_single lambda g =
  let iters = Exact.rect_tile_iterations ~lambda in
  Exact.footprint_size ~iterations:iters
    (Affine.make g (Ivec.zero (Imat.cols g)))

let test_rect_single_identity () =
  let g = Imat.identity 2 in
  check "4x5 box" 20 (Size.rect_single ~lambda:[| 3; 4 |] ~g);
  check "matches enumeration" (exact_single [| 3; 4 |] g)
    (Size.rect_single ~lambda:[| 3; 4 |] ~g)

let test_rect_single_nonsingular () =
  (* Example 2's B: one-to-one, so footprint = tile points. *)
  let g = Imat.of_rows [ [ 1; 1 ]; [ 1; -1 ] ] in
  check "size is box size" 20 (Size.rect_single ~lambda:[| 3; 4 |] ~g);
  check "matches enumeration" (exact_single [| 3; 4 |] g)
    (Size.rect_single ~lambda:[| 3; 4 |] ~g)

let test_rect_single_projection () =
  (* A[i+j] over 0..3 x 0..4: values 0..7, i.e. 8 elements. *)
  let g = Imat.of_rows [ [ 1 ]; [ 1 ] ] in
  check "A[i+j]" 8 (Size.rect_single ~lambda:[| 3; 4 |] ~g);
  check "matches enumeration" (exact_single [| 3; 4 |] g)
    (Size.rect_single ~lambda:[| 3; 4 |] ~g);
  (* A[2i+2j]: same count, sparser values. *)
  let g2 = Imat.of_rows [ [ 2 ]; [ 2 ] ] in
  check "A[2i+2j]" (exact_single [| 3; 4 |] g2)
    (Size.rect_single ~lambda:[| 3; 4 |] ~g:g2)

let test_rect_single_zero_g () =
  let g = Imat.of_rows [ [ 0 ]; [ 0 ] ] in
  check "constant reference touches one element" 1
    (Size.rect_single ~lambda:[| 3; 4 |] ~g)

let test_rect_cumulative_example2 () =
  (* The headline numbers: 104 for 100x1 column tiles, 140 for 10x10. *)
  let g = Imat.of_rows [ [ 1; 1 ]; [ 1; -1 ] ] in
  let spread = [| 4; 4 |] in
  check "column tile" 104
    (Size.rect_cumulative ~exact:false ~lambda:[| 99; 0 |] ~g ~spread);
  check "square tile" 140
    (Size.rect_cumulative ~exact:false ~lambda:[| 9; 9 |] ~g ~spread)

let test_rect_cumulative_exact_vs_brute () =
  let g = Imat.of_rows [ [ 1; 1 ]; [ 1; -1 ] ] in
  let r1 = Affine.make g [| 0; -1 |] and r2 = Affine.make g [| 4; 3 |] in
  let lambda = [| 9; 9 |] in
  let iters = Exact.rect_tile_iterations ~lambda in
  let brute = Exact.cumulative_footprint_size ~iterations:iters [ r1; r2 ] in
  check "lemma-3 exact equals brute force" brute
    (Size.rect_cumulative ~exact:true ~lambda ~g ~spread:[| 4; 4 |])

(* A rank-deficient G whose image box dwarfs its point count: the
   (60,60,60) box's 227k points land in a 3.6e9-cell bounding box, so
   only sorting the images (no bitset over the box) counts them within
   the enumeration budget. *)
let test_rect_wide_image_box () =
  let g = Imat.of_rows [ [ 1000; 0 ]; [ 0; 1000 ]; [ 1; 1 ] ] in
  let lambda = [| 60; 60; 60 |] and spread = [| 3; 1 |] in
  let iters = Exact.rect_tile_iterations ~lambda in
  check "single = Exact"
    (Exact.footprint_size ~iterations:iters (Affine.make g [| 0; 0 |]))
    (Size.rect_single ~lambda ~g);
  check "union = Exact"
    (Exact.cumulative_footprint_size ~iterations:iters
       [ Affine.make g [| 0; 0 |]; Affine.make g spread ])
    (Size.rect_cumulative ~exact:true ~lambda ~g ~spread)

let test_rect_cumulative_exact_rank_deficient () =
  (* Regression, found by the differential fuzzer's exhaustive probe:
     with a rank-deficient reduced G the exact:true engine used to fall
     back to the Theorem 4 linearization, which is badly wrong at
     degenerate tiles.  A trip-count-1 tile (lambda = 0) with two
     coinciding references through G = [[2],[-2]] touches exactly 1
     element, yet the linearized form reported 3; offsets one apart
     reported up to 7 for a true union of 2. *)
  let g = Imat.of_rows [ [ 2 ]; [ -2 ] ] in
  let check_pair o1 o2 lambda =
    let r1 = Affine.make g o1 and r2 = Affine.make g o2 in
    let iters = Exact.rect_tile_iterations ~lambda in
    let brute = Exact.cumulative_footprint_size ~iterations:iters [ r1; r2 ] in
    let spread = Array.map abs (Array.map2 ( - ) o2 o1) in
    check
      (Printf.sprintf "G=[[2],[-2]] o1=%d o2=%d lambda=(%d,%d)" o1.(0) o2.(0)
         lambda.(0) lambda.(1))
      brute
      (Size.rect_cumulative ~exact:true ~lambda ~g ~spread)
  in
  (* zero spread on a single-iteration tile: must equal the single
     footprint of 1 *)
  check_pair [| -2 |] [| -2 |] [| 0; 0 |];
  (* lattice-intersecting translate, still one iteration *)
  check_pair [| 0 |] [| 2 |] [| 0; 0 |];
  (* and on a small non-degenerate tile *)
  check_pair [| 0 |] [| 2 |] [| 2; 1 |];
  (* zero spread must always agree with rect_single, rank-deficient or
     not *)
  let g2 = Imat.of_rows [ [ 2; 2 ]; [ 2; 2 ] ] in
  check "spread 0 equals single (rank-1 2x2)"
    (Size.rect_single ~lambda:[| 0; 2 |] ~g:g2)
    (Size.rect_cumulative ~exact:true ~lambda:[| 0; 2 |] ~g:g2
       ~spread:[| 0; 0 |])

let test_rect_cumulative_poly_examples () =
  let names = [| "xi"; "xj"; "xk" |] in
  let pname k = names.(k) in
  (* Example 8. *)
  let p8 =
    Size.rect_cumulative_poly ~nesting:3 ~g:(Imat.identity 3)
      ~spread:[| 2; 3; 4 |]
  in
  Alcotest.(check string)
    "example 8 polynomial" "xi*xj*xk + 2*xj*xk + 3*xi*xk + 4*xi*xj"
    (Mpoly.to_string ~names:pname p8);
  (* Example 10, class B: (Li+1)(Lj+1) + 3(Lj+1) + (Li+1). *)
  let p10 =
    Size.rect_cumulative_poly ~nesting:2
      ~g:(Imat.of_rows [ [ 1; 1 ]; [ 1; -1 ] ])
      ~spread:[| 4; 2 |]
  in
  Alcotest.(check string)
    "example 10 B polynomial" "xi*xj + 3*xj + xi"
    (Mpoly.to_string ~names:pname p10);
  (* Example 10, class C (singular G, columns 0 and 2 kept):
     (Li+1)(Lj+1) + (Li+1). *)
  let pc =
    Size.rect_cumulative_poly ~nesting:2
      ~g:(Imat.of_rows [ [ 1; 2; 1 ]; [ 0; 0; 2 ] ])
      ~spread:[| 0; 0; 2 |]
  in
  Alcotest.(check string)
    "example 10 C polynomial" "xi*xj + xi"
    (Mpoly.to_string ~names:pname pc)

let test_lattice_spread_sharper () =
  (* Found by the random-nest property hunt: B[i+2, i+j-2] and B[i, i+j]
     have data-space spread (2,2) whose lattice coordinates (2,0) miss
     the true translation (2,-4); Definition 8's formula then
     under-counts.  The lattice-coordinate spread fixes it. *)
  let g = Imat.of_rows [ [ 1; 1 ]; [ 0; 1 ] ] in
  let offsets = [ [| 2; -2 |]; [| 0; 0 |] ] in
  (match Size.lattice_spread ~g ~offsets with
  | None -> Alcotest.fail "full-rank case"
  | Some u ->
      Alcotest.check rat "u0" (Rat.of_int 2) u.(0);
      Alcotest.check rat "u1" (Rat.of_int 4) u.(1));
  let poly = Size.rect_cumulative_poly_class ~nesting:2 ~g ~offsets in
  Alcotest.(check string)
    "sharper polynomial" "x0*x1 + 2*x1 + 4*x0"
    (Mpoly.to_string poly);
  (* The Definition 8 path gives the smaller (under-counting) value. *)
  let paper =
    Size.rect_cumulative_poly ~nesting:2 ~g ~spread:[| 2; 2 |]
  in
  Alcotest.(check string)
    "paper polynomial" "x0*x1 + 2*x1"
    (Mpoly.to_string paper);
  (* Ground truth sides with the lattice-coordinate spread. *)
  let lambda = [| 6; 6 |] in
  let iters = Exact.rect_tile_iterations ~lambda in
  let exact =
    Exact.cumulative_footprint_size ~iterations:iters
      [ Affine.make g [| 2; -2 |]; Affine.make g [| 0; 0 |] ]
  in
  let at poly = Rat.floor (Mpoly.eval_int poly [| 7; 7 |]) in
  checkb "lattice spread bounds truth" true (at poly >= exact);
  checkb "paper spread underestimates" true (at paper < exact)

let test_lattice_spread_matches_paper_examples () =
  (* On every worked example the two spreads coincide. *)
  List.iter
    (fun (g_rows, offsets, expect) ->
      let g = Imat.of_rows g_rows in
      match Size.lattice_spread ~g ~offsets with
      | None -> Alcotest.fail "expected full rank"
      | Some u ->
          Alcotest.(check (list string))
            "coords" expect
            (List.map Rat.to_string (Array.to_list u)))
    [
      (* Example 10 B: u = (3,1). *)
      ( [ [ 1; 1 ]; [ 1; -1 ] ],
        [ [| 0; 0 |]; [| 4; 2 |] ],
        [ "3"; "1" ] );
      (* Example 2 B: u = (4,0). *)
      ( [ [ 1; 1 ]; [ 1; -1 ] ],
        [ [| 0; -1 |]; [| 4; 3 |] ],
        [ "4"; "0" ] );
      (* Example 8 B: u = spread = (2,3,4). *)
      ( [ [ 1; 0; 0 ]; [ 0; 1; 0 ]; [ 0; 0; 1 ] ],
        [ [| -1; 0; 1 |]; [| 0; 1; 0 |]; [| 1; -2; -3 |] ],
        [ "2"; "3"; "4" ] );
    ]

let test_rect_traffic_poly () =
  let t =
    Size.rect_traffic_poly ~nesting:3 ~g:(Imat.identity 3)
      ~spread:[| 2; 3; 4 |]
  in
  Alcotest.(check string)
    "figure 9 traffic" "2*x1*x2 + 3*x0*x2 + 4*x0*x1"
    (Mpoly.to_string t)

(* ------------------------------------------------------------------ *)
(* Parallelepiped sizes (Equation 2 / Theorem 2)                       *)
(* ------------------------------------------------------------------ *)

let qmat_of_int_rows rows = Qmat.of_imat (Imat.of_rows rows)

let test_pped_single_example6 () =
  (* Example 6: L = [[L1,L1],[L2,0]], G = [[1,0],[1,1]]: |det LG| = L1 L2. *)
  let l = qmat_of_int_rows [ [ 10; 10 ]; [ 5; 0 ] ] in
  let g = Imat.of_rows [ [ 1; 0 ]; [ 1; 1 ] ] in
  Alcotest.check rat "L1*L2" (Rat.of_int 50) (Size.pped_single ~l ~g)

let test_pped_cumulative_example6 () =
  (* Cumulative with spread (1,2): |det LG| + |det (row1 -> a)| +
     |det (row2 -> a)|. *)
  let l = qmat_of_int_rows [ [ 10; 10 ]; [ 5; 0 ] ] in
  let g = Imat.of_rows [ [ 1; 0 ]; [ 1; 1 ] ] in
  (* LG = [[20,10],[5,0]]; replacing rows by (1,2):
     |det[[1,2],[5,0]]| = 10; |det[[20,10],[1,2]]| = 30. *)
  Alcotest.check rat "theorem 2 value" (Rat.of_int 90)
    (Size.pped_cumulative ~l ~g ~spread:[| 1; 2 |])

let test_pped_unsupported () =
  (* A[i+j]: rank 1 < nesting 2. *)
  let l = qmat_of_int_rows [ [ 10; 0 ]; [ 0; 10 ] ] in
  let g = Imat.of_rows [ [ 1 ]; [ 1 ] ] in
  checkb "raises Unsupported" true
    (try
       ignore (Size.pped_single ~l ~g);
       false
     with Size.Unsupported _ -> true)

let test_pped_float_matches_exact () =
  let g = Imat.of_rows [ [ 1; 0 ]; [ 1; 1 ] ] in
  let l = [| [| 10.0; 10.0 |]; [| 5.0; 0.0 |] |] in
  let v = Size.pped_cumulative_float ~l ~g ~spread:[| 1; 2 |] in
  Alcotest.(check (float 1e-6)) "float engine agrees" 90.0 v

let test_pped_terms_symbolic () =
  (* Example 9's B class: G = I, spread (2,1).  Theorem 2's terms over a
     generic L must be det L, det[[2,1],[L21,L22]], det[[L11,L12],[2,1]]. *)
  let terms =
    Size.pped_terms_symbolic ~nesting:2 ~g:(Imat.identity 2)
      ~spread:[| 2; 1 |]
  in
  let names = Pmat.entry_names 2 in
  Alcotest.(check (list string))
    "paper's three determinants"
    [ "-L12*L21 + L11*L22"; "2*L22 - L21"; "-2*L12 + L11" ]
    (List.map (Mpoly.to_string ~names) terms);
  (* Evaluating the symbolic terms at a concrete L reproduces the
     numeric Theorem 2 value. *)
  let env = Array.map Rat.of_int [| 10; 0; 0; 5 |] in
  let total =
    List.fold_left
      (fun acc p -> Rat.add acc (Rat.abs (Mpoly.eval p env)))
      Rat.zero terms
  in
  let numeric =
    Size.pped_cumulative
      ~l:(Qmat.of_rows Rat.[ [ of_int 10; zero ]; [ zero; of_int 5 ] ])
      ~g:(Imat.identity 2) ~spread:[| 2; 1 |]
  in
  Alcotest.check rat "sum of |terms| = Theorem 2" numeric total

let test_float_det () =
  Alcotest.(check (float 1e-9))
    "2x2" (-2.0)
    (Size.float_det [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |]);
  Alcotest.(check (float 1e-9))
    "singular" 0.0
    (Size.float_det [| [| 1.0; 2.0 |]; [| 2.0; 4.0 |] |])

(* ------------------------------------------------------------------ *)
(* General-G closed forms (Section 3.8)                                *)
(* ------------------------------------------------------------------ *)

let brute_linear_form coeffs lambda =
  let n = Array.length coeffs in
  let seen = Hashtbl.create 64 in
  let rec go k acc =
    if k = n then Hashtbl.replace seen acc ()
    else
      for x = 0 to lambda.(k) do
        go (k + 1) (acc + (coeffs.(k) * x))
      done
  in
  go 0 0;
  Hashtbl.length seen

let test_general_two_var () =
  (* A[i+j]: all of 0..l1+l2. *)
  check "i+j" 8 (General.count_linear_form_2 ~a:1 ~b:1 ~l1:3 ~l2:4);
  (* A[2i+2j]: same count, scaled values. *)
  check "2i+2j" 8 (General.count_linear_form_2 ~a:2 ~b:2 ~l1:3 ~l2:4);
  (* A[5i] with j unused. *)
  check "5i" 4 (General.count_linear_form_2 ~a:5 ~b:0 ~l1:3 ~l2:9);
  (* Disjoint runs: 5x + y with y in 0..1 leaves gaps. *)
  check "5i+j gaps" (brute_linear_form [| 5; 1 |] [| 3; 1 |])
    (General.count_linear_form_2 ~a:5 ~b:1 ~l1:3 ~l2:1);
  (* Negative coefficients count like positive ones. *)
  check "negatives" (General.count_linear_form_2 ~a:2 ~b:3 ~l1:4 ~l2:5)
    (General.count_linear_form_2 ~a:(-2) ~b:3 ~l1:4 ~l2:5)

let test_general_three_var () =
  List.iter
    (fun (coeffs, lambda) ->
      check
        (Printf.sprintf "form %s"
           (String.concat "," (List.map string_of_int (Array.to_list coeffs))))
        (brute_linear_form coeffs lambda)
        (General.count_linear_form ~coeffs ~lambda))
    [
      ([| 1; 2; 3 |], [| 3; 4; 5 |]);
      ([| 2; 4; 6 |], [| 3; 4; 5 |]);
      ([| 7; 3; 1 |], [| 2; 2; 8 |]);
      ([| 5; 5; 5 |], [| 2; 3; 4 |]);
      ([| 1; -1; 2 |], [| 4; 4; 4 |]);
      ([| 9; 6; 4 |], [| 3; 3; 3 |]);
    ]

(* The paper's lookup-table entry, computed on demand: the same count
   on every call, and the brute-force one. *)
let test_general_lookup_table () =
  let c = [| 3; 5; 7 |] and l = [| 6; 6; 6 |] in
  let v1 = General.count_linear_form ~coeffs:c ~lambda:l in
  let v2 = General.count_linear_form ~coeffs:c ~lambda:l in
  check "stable" v1 v2;
  check "brute force" (brute_linear_form c l) v1

let test_general_rect_single () =
  (* A[i+j, 2i+2j]: rank 1, two columns. *)
  let g = Imat.of_rows [ [ 1; 2 ]; [ 1; 2 ] ] in
  (match General.rect_single ~lambda:[| 3; 4 |] ~g with
  | Some n -> check "rank-1 exact" (exact_single [| 3; 4 |] g) n
  | None -> Alcotest.fail "rank-1 case should be handled");
  (* Full-rank G is outside this module's domain. *)
  checkb "declines full rank" true
    (General.rect_single ~lambda:[| 3; 4 |] ~g:(Imat.identity 2) = None);
  (* Size.rect_single now routes rank-1 projections here: a 3-nest
     A[i+2j+3k] stays exact even for large tiles. *)
  let g3 = Imat.of_rows [ [ 1 ]; [ 2 ]; [ 3 ] ] in
  check "large tile exact"
    (General.count_linear_form ~coeffs:[| 1; 2; 3 |]
       ~lambda:[| 150; 150; 150 |])
    (Size.rect_single ~lambda:[| 150; 150; 150 |] ~g:g3)

let prop_general_matches_brute =
  QCheck2.Test.make ~name:"count_linear_form = brute force" ~count:300
    QCheck2.Gen.(
      pair
        (list_size (int_range 1 3) (int_range (-6) 6))
        (list_size (return 3) (int_range 0 5)))
    (fun (coeffs, lambda) ->
      let n = List.length coeffs in
      let coeffs = Array.of_list coeffs in
      let lambda = Array.of_list (List.filteri (fun i _ -> i < n) lambda) in
      QCheck2.assume (Array.length lambda = n);
      General.count_linear_form ~coeffs ~lambda
      = brute_linear_form coeffs lambda)

let prop_general_2var_matches_brute =
  QCheck2.Test.make ~name:"count_linear_form_2 = brute force" ~count:500
    QCheck2.Gen.(
      quad (int_range (-9) 9) (int_range (-9) 9) (int_range 0 12)
        (int_range 0 12))
    (fun (a, b, l1, l2) ->
      General.count_linear_form_2 ~a ~b ~l1 ~l2
      = brute_linear_form [| a; b |] [| l1; l2 |])

(* ------------------------------------------------------------------ *)
(* Exact enumeration engine                                            *)
(* ------------------------------------------------------------------ *)

let test_pped_tile_iterations () =
  (* Unit square has 4 lattice points (closed parallelepiped). *)
  let l = Imat.of_rows [ [ 1; 0 ]; [ 0; 1 ] ] in
  check "closed unit square" 4 (List.length (Exact.pped_tile_iterations ~l));
  (* Example 6's skewed tile. *)
  let l2 = Imat.of_rows [ [ 2; 2 ]; [ 3; 0 ] ] in
  let pts = Exact.pped_tile_iterations ~l:l2 in
  (* |det| = 6; closed boundary adds points. *)
  checkb "at least det points" true (List.length pts >= 6)

let test_nest_unique_elements () =
  let open Dsl in
  let i = var 0 and j = var 1 in
  let n =
    nest [ doall "i" 0 3; doall "j" 0 3 ]
      [ write "A" [ i; j ]; read "B" [ i; j ]; read "B" [ i + int 1; j ] ]
  in
  let u = Exact.nest_unique_elements n in
  check "A unique" 16 (List.assoc "A" u);
  check "B unique" 20 (List.assoc "B" u)

(* ------------------------------------------------------------------ *)
(* Properties: closed forms vs enumeration on random inputs            *)
(* ------------------------------------------------------------------ *)

let gen_nonsing_2 =
  QCheck2.Gen.(
    map
      (fun (a, b, c, d) ->
        let m = Imat.of_rows [ [ a; b ]; [ c; d ] ] in
        if Imat.det m = 0 then Imat.identity 2 else m)
      (quad (int_range (-3) 3) (int_range (-3) 3) (int_range (-3) 3)
         (int_range (-3) 3)))

let prop_rect_single_matches_enum =
  QCheck2.Test.make ~name:"rect_single = enumeration (nonsingular G)"
    ~count:200
    QCheck2.Gen.(pair gen_nonsing_2 (pair (int_range 0 5) (int_range 0 5)))
    (fun (g, (l0, l1)) ->
      Size.rect_single ~lambda:[| l0; l1 |] ~g = exact_single [| l0; l1 |] g)

let prop_rect_single_projection_enum =
  QCheck2.Test.make ~name:"rect_single = enumeration (projection G)"
    ~count:200
    QCheck2.Gen.(
      triple
        (pair (int_range (-3) 3) (int_range (-3) 3))
        (int_range 0 6) (int_range 0 6))
    (fun ((a, b), l0, l1) ->
      QCheck2.assume (a <> 0 || b <> 0);
      let g = Imat.of_rows [ [ a ]; [ b ] ] in
      Size.rect_single ~lambda:[| l0; l1 |] ~g = exact_single [| l0; l1 |] g)

let prop_exact_cumulative_matches_brute =
  QCheck2.Test.make
    ~name:"rect_cumulative exact = brute force (intersecting pair)"
    ~count:200
    QCheck2.Gen.(
      triple gen_nonsing_2
        (pair (int_range 0 4) (int_range 0 4))
        (pair (int_range 0 3) (int_range 0 3)))
    (fun (g, (l0, l1), (u0, u1)) ->
      (* Construct the translate on the lattice so the class genuinely
         intersects, like a real uniformly intersecting set. *)
      let spread = Imat.mul_row [| u0; u1 |] g in
      QCheck2.assume (Array.for_all2 (fun s _ -> s >= 0) spread spread);
      let lambda = [| l0; l1 |] in
      let r1 = Affine.make g [| 0; 0 |] in
      let r2 = Affine.make g spread in
      let iters = Exact.rect_tile_iterations ~lambda in
      let brute =
        Exact.cumulative_footprint_size ~iterations:iters [ r1; r2 ]
      in
      Size.rect_cumulative ~exact:true ~lambda ~g ~spread = brute)

let prop_thm4_approx_close =
  QCheck2.Test.make
    ~name:"Theorem 4 approximation within additive cross terms" ~count:200
    QCheck2.Gen.(
      triple gen_nonsing_2
        (pair (int_range 2 6) (int_range 2 6))
        (pair (int_range 0 2) (int_range 0 2)))
    (fun (g, (l0, l1), (u0, u1)) ->
      let spread = Imat.mul_row [| u0; u1 |] g in
      let lambda = [| l0; l1 |] in
      let approx =
        Size.rect_cumulative ~exact:false ~lambda ~g ~spread
      in
      let exact = Size.rect_cumulative ~exact:true ~lambda ~g ~spread in
      (* Thm 4 drops the product of the u_i: overshoot is at most
         u0*u1 + rounding. *)
      approx >= exact && approx - exact <= (abs u0 * abs u1) + 1)

let prop_pped_volume_scales =
  QCheck2.Test.make ~name:"pped volume scales linearly in each row"
    ~count:200 gen_nonsing_2 (fun g ->
      let l = Qmat.of_imat (Imat.of_rows [ [ 4; 0 ]; [ 0; 5 ] ]) in
      let l2 = Qmat.of_imat (Imat.of_rows [ [ 8; 0 ]; [ 0; 5 ] ]) in
      let s1 = Size.pped_single ~l ~g and s2 = Size.pped_single ~l:l2 ~g in
      Rat.equal s2 (Rat.mul (Rat.of_int 2) s1))

(* Random reference lists: the classification must be a partition into
   pairwise uniformly intersecting sets, maximal in the sense that a
   reference never intersects a same-array class it was kept out of. *)
let gen_ref_list =
  QCheck2.Gen.(
    let gen_g =
      oneofl
        [
          [ [ 1; 0 ]; [ 0; 1 ] ];
          [ [ 2; 0 ]; [ 0; 1 ] ];
          [ [ 1; 1 ]; [ 1; -1 ] ];
          [ [ 2; 0 ]; [ 0; 2 ] ];
          [ [ 1; 0 ]; [ 1; 1 ] ];
        ]
    in
    let gen_ref =
      map3
        (fun name g (o1, o2) ->
          Reference.read name (aff g [ o1; o2 ]))
        (oneofl [ "A"; "B" ])
        gen_g
        (pair (int_range (-3) 3) (int_range (-3) 3))
    in
    list_size (int_range 1 7) gen_ref)

let prop_classify_partition =
  QCheck2.Test.make ~name:"classify partitions the references" ~count:200
    gen_ref_list (fun refs ->
      let classes = Uniform.classify refs in
      let total =
        List.fold_left (fun acc c -> acc + List.length c.Uniform.refs) 0 classes
      in
      total = List.length refs)

let prop_classify_classes_cohere =
  QCheck2.Test.make ~name:"classes are pairwise uniformly intersecting"
    ~count:200 gen_ref_list (fun refs ->
      let classes = Uniform.classify refs in
      List.for_all
        (fun c ->
          List.for_all
            (fun (r : Reference.t) ->
              List.for_all
                (fun (s : Reference.t) ->
                  Uniform.uniformly_intersecting r.Reference.index
                    s.Reference.index)
                c.Uniform.refs)
            c.Uniform.refs)
        classes)

let prop_classify_maximal =
  QCheck2.Test.make ~name:"classes do not split intersecting refs"
    ~count:200 gen_ref_list (fun refs ->
      let classes = Uniform.classify refs in
      (* Any two same-array classes with equal G must be mutually
         non-intersecting (otherwise they should have merged). *)
      let rec pairs = function
        | [] -> []
        | x :: rest -> List.map (fun y -> (x, y)) rest @ pairs rest
      in
      List.for_all
        (fun (c1, c2) ->
          (not
             (c1.Uniform.array_name = c2.Uniform.array_name
             && Matrixkit.Imat.equal c1.Uniform.g c2.Uniform.g))
          ||
          match (c1.Uniform.refs, c2.Uniform.refs) with
          | r :: _, s :: _ ->
              not
                (Uniform.uniformly_intersecting r.Reference.index
                   s.Reference.index)
          | _ -> true)
        (pairs classes))

let prop_class_poly_bounds_union =
  (* The central guarantee of the lattice-coordinate spread: the class
     polynomial bounds the exact union for any pair of intersecting
     references, including the skewed mixed-sign cases where the
     Definition 8 spread under-counts. *)
  QCheck2.Test.make ~name:"class polynomial bounds the exact union"
    ~count:300
    QCheck2.Gen.(
      triple
        (oneofl
           [
             [ [ 1; 0 ]; [ 0; 1 ] ];
             [ [ 1; 1 ]; [ 0; 1 ] ];
             [ [ 1; 1 ]; [ 1; -1 ] ];
             [ [ 2; 1 ]; [ 0; 1 ] ];
             [ [ 1; 0 ]; [ 1; 1 ] ];
           ])
        (pair (int_range 0 4) (int_range (-4) 4))
        (pair (int_range 2 7) (int_range 2 7)))
    (fun (g_rows, (u0, u1), (x0, x1)) ->
      let g = Imat.of_rows g_rows in
      (* Construct an on-lattice translation so the pair is a genuine
         uniformly intersecting class. *)
      let delta = Imat.mul_row [| u0; u1 |] g in
      let offsets = [ [| 0; 0 |]; delta ] in
      let poly = Size.rect_cumulative_poly_class ~nesting:2 ~g ~offsets in
      let lambda = [| x0 - 1; x1 - 1 |] in
      let iters = Exact.rect_tile_iterations ~lambda in
      let exact =
        Exact.cumulative_footprint_size ~iterations:iters
          [ Affine.make g [| 0; 0 |]; Affine.make g delta ]
      in
      Rat.floor (Mpoly.eval_int poly [| x0; x1 |]) >= exact)

let props =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_class_poly_bounds_union;
      prop_classify_partition;
      prop_classify_classes_cohere;
      prop_classify_maximal;
      prop_rect_single_matches_enum;
      prop_rect_single_projection_enum;
      prop_exact_cumulative_matches_brute;
      prop_thm4_approx_close;
      prop_pped_volume_scales;
      prop_general_matches_brute;
      prop_general_2var_matches_brute;
    ]

let () =
  Alcotest.run "footprint"
    [
      ( "classification",
        [
          Alcotest.test_case "intersecting basics" `Quick
            test_intersecting_basic;
          Alcotest.test_case "appendix B positives" `Quick
            test_appendix_b_uniformly_intersecting;
          Alcotest.test_case "appendix B negatives" `Quick
            test_appendix_b_negative_pairs;
          Alcotest.test_case "example 10 class split" `Quick
            test_classify_example10;
          Alcotest.test_case "arrays never merge" `Quick
            test_classify_different_arrays;
          Alcotest.test_case "program order kept" `Quick
            test_classify_order_preserved;
        ] );
      ( "spread",
        [
          Alcotest.test_case "max-min spread" `Quick test_spread;
          Alcotest.test_case "cumulative spread (footnote 2)" `Quick
            test_cumulative_spread;
        ] );
      ( "reduction",
        [
          Alcotest.test_case "theorem 1 condition" `Quick
            test_theorem1_condition;
          Alcotest.test_case "example 7 columns" `Quick test_reduce_example7;
          Alcotest.test_case "zero rows" `Quick test_reduce_zero_rows;
          Alcotest.test_case "projection detected" `Quick
            test_reduce_projection;
        ] );
      ( "rect sizes",
        [
          Alcotest.test_case "identity G" `Quick test_rect_single_identity;
          Alcotest.test_case "nonsingular G" `Quick
            test_rect_single_nonsingular;
          Alcotest.test_case "projection G" `Quick test_rect_single_projection;
          Alcotest.test_case "zero G" `Quick test_rect_single_zero_g;
          Alcotest.test_case "example 2 headline numbers" `Quick
            test_rect_cumulative_example2;
          Alcotest.test_case "lemma 3 vs brute force" `Quick
            test_rect_cumulative_exact_vs_brute;
          Alcotest.test_case "exact union for rank-deficient G" `Quick
            test_rect_cumulative_exact_rank_deficient;
          Alcotest.test_case "polynomials of examples 8/10" `Quick
            test_rect_cumulative_poly_examples;
          Alcotest.test_case "figure 9 traffic polynomial" `Quick
            test_rect_traffic_poly;
          Alcotest.test_case "lattice spread is sharper" `Quick
            test_lattice_spread_sharper;
          Alcotest.test_case "lattice spread on paper examples" `Quick
            test_lattice_spread_matches_paper_examples;
          Alcotest.test_case "wide image box = Exact" `Quick
            test_rect_wide_image_box;
        ] );
      ( "pped sizes",
        [
          Alcotest.test_case "example 6 volume" `Quick
            test_pped_single_example6;
          Alcotest.test_case "example 6 cumulative" `Quick
            test_pped_cumulative_example6;
          Alcotest.test_case "unsupported G" `Quick test_pped_unsupported;
          Alcotest.test_case "float engine" `Quick
            test_pped_float_matches_exact;
          Alcotest.test_case "symbolic theorem 2" `Quick
            test_pped_terms_symbolic;
          Alcotest.test_case "float det" `Quick test_float_det;
        ] );
      ( "general G (3.8)",
        [
          Alcotest.test_case "two-variable closed form" `Quick
            test_general_two_var;
          Alcotest.test_case "three-variable sweep" `Quick
            test_general_three_var;
          Alcotest.test_case "lookup table" `Quick test_general_lookup_table;
          Alcotest.test_case "rank-1 rect_single" `Quick
            test_general_rect_single;
        ] );
      ( "exact",
        [
          Alcotest.test_case "pped tile points" `Quick
            test_pped_tile_iterations;
          Alcotest.test_case "nest unique elements" `Quick
            test_nest_unique_elements;
        ] );
      ("properties", props);
    ]
