open Intmath
open Matrixkit

(* ------------------------------------------------------------------ *)
(* Two-variable closed form                                            *)
(* ------------------------------------------------------------------ *)

(* For coprime a, b > 0, group the values a*x + b*y by the residue class
   of x modulo b (classes are distinct because gcd(a,b) = 1).  Within the
   class of x0, writing x = x0 + j*b, the reachable values are
   a*x0 + b*(a*j + y) with 0 <= j <= m = (l1 - x0)/b and 0 <= y <= l2:
   m+1 intervals of length l2+1 spaced a apart, which merge into one run
   when a <= l2 + 1. *)
let count_coprime a b l1 l2 =
  let xmax = min l1 (b - 1) in
  let total = ref 0 in
  for x0 = 0 to xmax do
    let m = (l1 - x0) / b in
    let in_class =
      if a <= l2 + 1 then (a * m) + l2 + 1 else (m + 1) * (l2 + 1)
    in
    total := !total + in_class
  done;
  !total

let count_linear_form_2 ~a ~b ~l1 ~l2 =
  if l1 < 0 || l2 < 0 then invalid_arg "General.count_linear_form_2";
  match (a, b) with
  | 0, 0 -> 1
  | 0, b -> if b = 0 then 1 else l2 + 1
  | a, 0 -> if a = 0 then 1 else l1 + 1
  | a, b ->
      let a = abs a and b = abs b in
      let g = Int_math.gcd a b in
      (* Scaling by g is a bijection on values. *)
      let a = a / g and b = b / g in
      (* Summing over the smaller modulus is cheaper; the count is
         symmetric under swapping the roles of the two terms. *)
      if b <= a then count_coprime a b l1 l2 else count_coprime b a l2 l1

(* ------------------------------------------------------------------ *)
(* n-variable forms: the lookup-table entry, computed on demand        *)
(* ------------------------------------------------------------------ *)

let sweep_budget = 1 lsl 20

(* Canonical terms: positive coefficients divided by their gcd, paired
   with their bounds, zero terms and fixed variables dropped.  The count
   is invariant under all of these. *)
let canonical coeffs lambda =
  let terms = ref [] in
  Array.iteri
    (fun k c ->
      if c <> 0 && lambda.(k) > 0 then terms := (abs c, lambda.(k)) :: !terms)
    coeffs;
  let g = Int_math.gcd_list (List.map fst !terms) in
  if g > 1 then List.map (fun (c, l) -> (c / g, l)) !terms else !terms

(* The values over [0 .. range] reachable as [sum_k c_k x_k], folding
   the variables in one at a time: [dst] is the union over [x] in
   [0 .. l] of [src] shifted by [c * x]. *)
let sweep terms range =
  let fold src (c, l) =
    let dst = Bitset.create ~universe:(range + 1) in
    for i = 0 to range do
      if Bitset.mem src i then begin
        let pos = ref i in
        for _ = 0 to min l ((range - i) / c) do
          Bitset.add dst !pos;
          pos := !pos + c
        done
      end
    done;
    dst
  in
  let origin = Bitset.create ~universe:(range + 1) in
  Bitset.add origin 0;
  Bitset.cardinal (List.fold_left fold origin terms)

let count_linear_form ~coeffs ~lambda =
  if Array.length coeffs <> Array.length lambda then
    invalid_arg "General.count_linear_form: length mismatch";
  if Array.exists (fun l -> l < 0) lambda then
    invalid_arg "General.count_linear_form: negative bound";
  match canonical coeffs lambda with
  | [] -> 1
  | [ (_, l) ] -> l + 1
  | [ (a, l1); (b, l2) ] -> count_linear_form_2 ~a ~b ~l1 ~l2
  | terms ->
      let range = List.fold_left (fun acc (c, l) -> acc + (c * l)) 0 terms in
      (* Beyond the sweep budget, the asymptotic count: every residue hit
         across the full range. *)
      if range + 1 > sweep_budget then range + 1 else sweep terms range

(* ------------------------------------------------------------------ *)
(* Rank-1 footprints                                                   *)
(* ------------------------------------------------------------------ *)

let rect_single ~lambda ~g =
  if Array.length lambda <> Imat.rows g then
    invalid_arg "General.rect_single: lambda length must equal rows of G";
  if Imat.rank g <> 1 then None
  else begin
    (* All columns are multiples of one primitive column; distinct data
       elements correspond exactly to distinct values of that column's
       linear form. *)
    let cols = Imat.max_independent_cols g in
    match cols with
    | [ j ] ->
        let coeffs = Imat.col g j in
        Some (count_linear_form ~coeffs ~lambda)
    | _ -> None
  end
