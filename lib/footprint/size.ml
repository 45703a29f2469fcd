open Intmath
open Matrixkit

exception Unsupported of string

let theorem1_applies g = Imat.is_unimodular g

(* ------------------------------------------------------------------ *)
(* Reduction pipeline (Example 1 + Section 3.4.1)                      *)
(* ------------------------------------------------------------------ *)

type reduction = {
  kept_cols : int list;
  kept_rows : int list;
  g_reduced : Imat.t;
  spread_reduced : Ivec.t;
  full_row_rank : bool;
}

let is_zero_matrix g =
  let all = ref true in
  for i = 0 to Imat.rows g - 1 do
    for j = 0 to Imat.cols g - 1 do
      if Imat.get g i j <> 0 then all := false
    done
  done;
  !all

let reduce ~g ~spread =
  if Array.length spread <> Imat.cols g then
    invalid_arg "Size.reduce: spread length must equal columns of G";
  if is_zero_matrix g then
    invalid_arg "Size.reduce: zero G (constant reference) must be \
                 special-cased by the caller";
  let kept_cols = Imat.max_independent_cols g in
  let g1 = Imat.select_cols g kept_cols in
  let spread1 =
    Array.of_list (List.map (fun j -> spread.(j)) kept_cols)
  in
  let kept_rows =
    List.filter
      (fun i -> not (Ivec.is_zero (Imat.row g1 i)))
      (List.init (Imat.rows g1) Fun.id)
  in
  let g_reduced = Imat.select_rows g1 kept_rows in
  let full_row_rank = List.length kept_rows = List.length kept_cols in
  { kept_cols; kept_rows; g_reduced; spread_reduced = spread1; full_row_rank }

(* Translation coordinates: u with u * g_red = spread_red, over Q.  The
   rows of the reduced matrix span the column space, so the system is
   always consistent; when rows are dependent the particular solution with
   zero free variables is used. *)
let translation_coords red =
  let b = Array.map Rat.of_int red.spread_reduced in
  match Qmat.solve_left (Qmat.of_imat red.g_reduced) b with
  | Some u -> u
  | None ->
      (* Cannot happen for a valid reduction; defensive. *)
      raise
        (Unsupported "spread vector outside the row space of the reduced G")

(* ------------------------------------------------------------------ *)
(* Symbolic engines (variables x_k = lambda_k + 1)                     *)
(* ------------------------------------------------------------------ *)

let subsets_of_size k xs =
  let rec go k xs =
    if k = 0 then [ [] ]
    else
      match xs with
      | [] -> []
      | x :: rest ->
          List.map (fun s -> x :: s) (go (k - 1) rest) @ go k rest
  in
  go k xs

(* Zonotope-volume / lattice-index estimate for a projection-like
   reference: the image of the box under G is a zonotope of dimension
   r = rank(G); the number of image lattice points is approximately its
   r-volume divided by the covolume (index) of the image lattice.
   The r-volume of the zonotope spanned by edge vectors lambda_i * g_i is
   sum over r-subsets S of |det G[S]| * prod_{i in S} lambda_i. *)
let zonotope_poly ~rows ~g_reduced =
  let r = Imat.cols g_reduced in
  let index =
    Int_math.prod (Snf.invariant_factors g_reduced)
  in
  let row_positions = List.init (List.length rows) Fun.id in
  let terms =
    List.map
      (fun subset ->
        let d = abs (Imat.det (Imat.select_rows g_reduced subset)) in
        let vars =
          List.map (fun pos -> Mpoly.var (List.nth rows pos)) subset
        in
        Mpoly.scale_int d (Mpoly.product vars))
      (subsets_of_size r row_positions)
  in
  Mpoly.scale (Rat.make 1 index) (Mpoly.sum terms)

let rect_single_poly ~nesting ~g =
  if Imat.rows g <> nesting then
    invalid_arg "Size.rect_single_poly: G rows must equal nesting";
  if is_zero_matrix g then Mpoly.one
  else
    let red = reduce ~g ~spread:(Ivec.zero (Imat.cols g)) in
    if red.full_row_rank then
      Mpoly.product (List.map Mpoly.var red.kept_rows)
    else zonotope_poly ~rows:red.kept_rows ~g_reduced:red.g_reduced

let cumulative_from_single ~single ~rows ~u =
  (* cumulative = single + sum_i |u_i| * d(single)/dx_i; for a square
     nonsingular reduced G this is exactly Theorem 4. *)
  let extra =
    List.mapi
      (fun pos i -> Mpoly.scale (Rat.abs u.(pos)) (Mpoly.partial i single))
      rows
  in
  Mpoly.add single (Mpoly.sum extra)

let rect_cumulative_poly ~nesting ~g ~spread =
  if Imat.rows g <> nesting then
    invalid_arg "Size.rect_cumulative_poly: G rows must equal nesting";
  if is_zero_matrix g then Mpoly.one
  else
    let red = reduce ~g ~spread in
    let single = rect_single_poly ~nesting ~g in
    let u = translation_coords red in
    cumulative_from_single ~single ~rows:red.kept_rows ~u

let rect_traffic_poly ~nesting ~g ~spread =
  Mpoly.sub (rect_cumulative_poly ~nesting ~g ~spread)
    (rect_single_poly ~nesting ~g)

let offsets_spread offsets =
  match offsets with
  | [] -> invalid_arg "Size: empty offset list"
  | first :: rest ->
      let lo = Array.copy first and hi = Array.copy first in
      List.iter
        (Array.iteri (fun k v ->
             if v < lo.(k) then lo.(k) <- v;
             if v > hi.(k) then hi.(k) <- v))
        rest;
      Array.init (Array.length lo) (fun k -> hi.(k) - lo.(k))

let lattice_spread ~g ~offsets =
  if offsets = [] then invalid_arg "Size.lattice_spread: empty offsets";
  if is_zero_matrix g then None
  else
    let red = reduce ~g ~spread:(offsets_spread offsets) in
    if not red.full_row_rank then None
    else
      match Qmat.inv (Qmat.of_imat red.g_reduced) with
      | None -> None
      | Some ginv ->
          let coords =
            List.map
              (fun (o : Ivec.t) ->
                let o_red =
                  Array.of_list
                    (List.map (fun j -> Rat.of_int o.(j)) red.kept_cols)
                in
                Qmat.mul_row o_red ginv)
              offsets
          in
          let n = List.length red.kept_rows in
          let u = Array.make n Rat.zero in
          (match coords with
          | [] -> ()
          | first :: rest ->
              let lo = Array.copy first and hi = Array.copy first in
              List.iter
                (Array.iteri (fun k v ->
                     if Rat.compare v lo.(k) < 0 then lo.(k) <- v;
                     if Rat.compare v hi.(k) > 0 then hi.(k) <- v))
                rest;
              Array.iteri (fun k _ -> u.(k) <- Rat.sub hi.(k) lo.(k)) u);
          Some u

let rect_cumulative_poly_class ~nesting ~g ~offsets =
  if is_zero_matrix g then Mpoly.one
  else
    match lattice_spread ~g ~offsets with
    | Some u ->
        let spread = offsets_spread offsets in
        let red = reduce ~g ~spread in
        let single = rect_single_poly ~nesting ~g in
        cumulative_from_single ~single ~rows:red.kept_rows ~u
    | None ->
        rect_cumulative_poly ~nesting ~g ~spread:(offsets_spread offsets)

(* ------------------------------------------------------------------ *)
(* Numeric rectangular engines                                         *)
(* ------------------------------------------------------------------ *)

let enumeration_budget = 1 lsl 21

let compare_images (a : int array) (b : int array) =
  let rec go k =
    if k = Array.length a then 0
    else
      let c = Int.compare a.(k) b.(k) in
      if c <> 0 then c else go (k + 1)
  in
  go 0

(* The distinct images of the box [0 .. lambda_red] under the reduced G,
   together with their translates by each of [translates]: every image,
   sorted, counted by runs.  A bitset would not do: the image's bounding
   box is unbounded by the point count (G rows (1000,0), (0,1000), (1,1)
   map 227k points of a (60,60,60) box into 3.6e9 cells). *)
let distinct_images ~lambda_red ~g_reduced ~translates =
  let n = Array.length lambda_red in
  let points = Array.fold_left (fun acc l -> acc * (l + 1)) 1 lambda_red in
  let images = Array.make (points * (1 + List.length translates)) [||] in
  let next = ref 0 in
  let push img =
    images.(!next) <- img;
    incr next
  in
  let point = Array.make n 0 in
  let rec go i =
    if i = n then begin
      let img = Imat.mul_row point g_reduced in
      push img;
      List.iter (fun t -> push (Ivec.add img t)) translates
    end
    else
      for v = 0 to lambda_red.(i) do
        point.(i) <- v;
        go (i + 1)
      done
  in
  go 0;
  Array.stable_sort compare_images images;
  let runs = ref 0 in
  Array.iteri
    (fun k img ->
      if k = 0 || compare_images images.(k - 1) img <> 0 then incr runs)
    images;
  !runs

let lambda_of_rows lambda rows =
  Array.of_list (List.map (fun i -> lambda.(i)) rows)

let eval_poly_at_lambda poly lambda =
  let env = Array.map (fun l -> l + 1) lambda in
  Rat.floor (Mpoly.eval_int poly env)

(* A rank-deficient reduced G: exact by enumeration within the budget,
   the polynomial at [lambda] beyond it. *)
let enumerated_or_poly red ~lambda ~translates poly =
  let lambda_red = lambda_of_rows lambda red.kept_rows in
  let points =
    Array.fold_left (fun acc l -> Int_math.mul_exact acc (l + 1)) 1 lambda_red
  in
  if points <= enumeration_budget then
    distinct_images ~lambda_red ~g_reduced:red.g_reduced ~translates
  else eval_poly_at_lambda (poly ()) lambda

let rect_single ~lambda ~g =
  if Array.length lambda <> Imat.rows g then
    invalid_arg "Size.rect_single: lambda length must equal rows of G";
  if Array.exists (fun l -> l < 0) lambda then
    invalid_arg "Size.rect_single: negative tile bound";
  if is_zero_matrix g then 1
  else
    let red = reduce ~g ~spread:(Ivec.zero (Imat.cols g)) in
    if red.full_row_rank then
      List.fold_left
        (fun acc i -> Int_math.mul_exact acc (lambda.(i) + 1))
        1 red.kept_rows
    else
      match General.rect_single ~lambda ~g with
      | Some exact -> exact (* rank-1 projections have a closed form *)
      | None ->
          enumerated_or_poly red ~lambda ~translates:[] (fun () ->
              rect_single_poly ~nesting:(Imat.rows g) ~g)

let rect_cumulative ~exact ~lambda ~g ~spread =
  if Array.length lambda <> Imat.rows g then
    invalid_arg "Size.rect_cumulative: lambda length must equal rows of G";
  if is_zero_matrix g then 1
  else
    let red = reduce ~g ~spread in
    let poly () = rect_cumulative_poly ~nesting:(Imat.rows g) ~g ~spread in
    if exact && red.full_row_rank then begin
      let lambda_red = lambda_of_rows lambda red.kept_rows in
      let bounded = Lattice.make red.g_reduced lambda_red in
      Lattice.union_size_translate bounded red.spread_reduced
    end
    else if exact then
      (* Rank-deficient reduced G (projections like A[i+j], dependent
         rows): Lemma 3 does not apply, but the union is still countable
         by enumeration for small tiles.  The Theorem 4 linearization is
         badly wrong exactly at degenerate tiles - a trip-count-1 tile
         with two coinciding references must report the single footprint,
         not single + |u| terms. *)
      enumerated_or_poly red ~lambda ~translates:[ red.spread_reduced ] poly
    else eval_poly_at_lambda (poly ()) lambda

(* ------------------------------------------------------------------ *)
(* Hyperparallelepiped engines                                         *)
(* ------------------------------------------------------------------ *)

let reduced_for_pped ~g ~spread =
  let red = reduce ~g ~spread in
  let l = Imat.rows g in
  if List.length red.kept_cols <> l then
    raise
      (Unsupported
         (Printf.sprintf
            "parallelepiped engine needs rank(G) = nesting; got rank %d, \
             nesting %d (use the rectangular engine)"
            (List.length red.kept_cols) l));
  (* Full row rank and kept_cols of size l: the column-selected G1 is
     l x l nonsingular and no row is zero. *)
  Imat.select_cols g red.kept_cols, red.spread_reduced

let pped_single ~l ~g =
  let g1, _ = reduced_for_pped ~g ~spread:(Ivec.zero (Imat.cols g)) in
  let lg = Qmat.mul l (Qmat.of_imat g1) in
  Rat.abs (Qmat.det lg)

let qmat_replace_row m i (v : Rat.t array) =
  Qmat.make (Qmat.rows m) (Qmat.cols m) (fun i' j ->
      if i' = i then v.(j) else Qmat.get m i' j)

let pped_cumulative ~l ~g ~spread =
  let g1, spread_red = reduced_for_pped ~g ~spread in
  let lg = Qmat.mul l (Qmat.of_imat g1) in
  let a_row = Array.map Rat.of_int spread_red in
  let n = Qmat.rows lg in
  let acc = ref (Rat.abs (Qmat.det lg)) in
  for i = 0 to n - 1 do
    acc := Rat.add !acc (Rat.abs (Qmat.det (qmat_replace_row lg i a_row)))
  done;
  !acc

let pped_terms_symbolic ~nesting ~g ~spread =
  let g1, spread_red = reduced_for_pped ~g ~spread in
  let l_sym = Pmat.generic nesting in
  let lg = Pmat.mul l_sym (Pmat.of_imat g1) in
  let a_row = Array.map Mpoly.const_int spread_red in
  Pmat.det lg
  :: List.init nesting (fun i -> Pmat.det (Pmat.replace_row lg i a_row))

let float_det_in_place a =
  let n = Array.length a in
  let det = ref 1.0 in
  let c = ref 0 in
  while !c < n do
    let col = !c in
    (* partial pivoting *)
    let piv = ref col in
    for i = col + 1 to n - 1 do
      if abs_float a.(i).(col) > abs_float a.(!piv).(col) then piv := i
    done;
    if abs_float a.(!piv).(col) < 1e-12 then begin
      det := 0.0;
      c := n
    end
    else begin
      if !piv <> col then begin
        let t = a.(!piv) in
        a.(!piv) <- a.(col);
        a.(col) <- t;
        det := -. !det
      end;
      det := !det *. a.(col).(col);
      for i = col + 1 to n - 1 do
        let f = a.(i).(col) /. a.(col).(col) in
        for j = col to Array.length a.(col) - 1 do
          a.(i).(j) <- a.(i).(j) -. (f *. a.(col).(j))
        done
      done;
      incr c
    end
  done;
  !det

let float_det a0 = float_det_in_place (Array.map Array.copy a0)

let pped_cumulative_float ~l ~g ~spread =
  let red = reduce ~g ~spread in
  let nl = Array.length l in
  if List.length red.kept_cols <> nl then
    raise
      (Unsupported "parallelepiped float engine needs rank(G) = nesting");
  let g1 = Imat.select_cols g red.kept_cols in
  let lg =
    Array.init nl (fun i ->
        Array.init nl (fun j ->
            let acc = ref 0.0 in
            for k = 0 to nl - 1 do
              acc := !acc +. (l.(i).(k) *. float_of_int (Imat.get g1 k j))
            done;
            !acc))
  in
  let a_row = Array.map float_of_int red.spread_reduced in
  let replace i =
    Array.init nl (fun i' -> if i' = i then a_row else lg.(i'))
  in
  let acc = ref (abs_float (float_det lg)) in
  for i = 0 to nl - 1 do
    acc := !acc +. abs_float (float_det (replace i))
  done;
  !acc
