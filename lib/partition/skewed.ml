open Intmath
open Matrixkit
open Loopir
open Footprint

type result = {
  l : Imat.t;
  tile : Tile.t;
  continuous_l : float array array;
  continuous_cost : float;
  rounded_cost : float;
  rect_cost : float;
  improves_on_rect : bool;
}

(* A class reduced once per call: everything its Theorem 2 term needs
   that does not depend on [L]. *)
type compiled_class = {
  weight : float;  (* sync weight *)
  index : float;  (* lattice index [|det G1|] *)
  g : Imat.t;
  spread : Ivec.t;
  u : float array;  (* the reduced spread row in G1's basis: [u G1 = a] *)
}

(* The compiled objective plus the scratch matrices every evaluation
   writes.  One is built per call and never shared, so calls from
   several domains stay independent. *)
type compiled = {
  classes : compiled_class array;
  extents : float array;
  work : float array array;  (* [L^T] with one [u^T] column per class *)
  cand : float array array;  (* refine_entry's candidate L *)
}

(* [None] when rank(G) < nesting: a constant reference, a projection or a
   rank-deficient class.  Otherwise the column-selected G1 is square
   nonsingular, so it has no zero row and is its own reduction. *)
let compile_class n (c : Cost.class_cost) =
  let g = c.Cost.cls.Uniform.g in
  if Imat.rank g < n then None
  else
    let spread = Uniform.spread c.Cost.cls in
    let red = Size.reduce ~g ~spread in
    let g1 = Qmat.of_imat red.Size.g_reduced in
    let a = Array.map Rat.of_int red.Size.spread_reduced in
    Some
      {
        weight = float_of_int c.Cost.sync_weight;
        index = float_of_int (abs (Imat.det red.Size.g_reduced));
        g;
        spread;
        u = Array.map Rat.to_float (Qmat.mul_row a (Option.get (Qmat.inv g1)));
      }

let compile cost =
  let nest = cost.Cost.nest in
  let n = Nest.nesting nest in
  let classes = List.filter_map (compile_class n) cost.Cost.classes in
  if List.compare_lengths classes cost.Cost.classes <> 0 then None
  else
    Some
      {
        classes = Array.of_list classes;
        extents = Array.map float_of_int (Nest.extents nest);
        work = Array.make_matrix n (n + List.length classes) 0.0;
        cand = Array.make_matrix n n 0.0;
      }

(* Theorem 2 per class, divided by its lattice index and weighted. *)
let objective_at p l =
  Array.fold_left
    (fun total c ->
      let v = Size.pped_cumulative_float ~l ~g:c.g ~spread:c.spread in
      total +. (c.weight *. (v /. c.index)))
    0.0 p.classes

let objective cost l =
  match compile cost with None -> infinity | Some p -> objective_at p l

let copy_mat m = Array.map Array.copy m

let blit_mat src dst =
  Array.iteri (fun i row -> Array.blit row 0 dst.(i) 0 (Array.length row)) src

(* [l] scaled by [s] with [|det (s l)| = volume]; [None] when [l] is
   numerically singular. *)
let renormalize ~volume l =
  let d = abs_float (Size.float_det l) in
  if d < 1e-9 then None
  else
    let s = (volume /. d) ** (1.0 /. float_of_int (Array.length l)) in
    Some (Array.map (Array.map (fun x -> x *. s)) l)

(* The tile [s l] must fit inside the iteration space: its bounding box
   (sum of |edge| per dimension) may not exceed the extents.  Without
   this constraint the solver degenerates to infinitely long, thin tiles
   along a communication-free direction. *)
let box_penalty ~extents ~s l =
  let n = Array.length l in
  let pen = ref 0.0 in
  for k = 0 to n - 1 do
    let bbox = ref 0.0 in
    for i = 0 to n - 1 do
      bbox := !bbox +. abs_float l.(i).(k)
    done;
    let excess = (s *. !bbox /. extents.(k)) -. 1.0 in
    if excess > 0.0 then pen := !pen +. (excess *. excess)
  done;
  !pen

(* The objective at [s l], [|det (s l)| = volume], without a
   determinant per term.  Replacing row i of [L G1] by the spread row
   [a = u G1] gives [(L with row i <- u) G1], and by Cramer's rule
   [det (L with row i <- u) = det L * x_i] where [x L = u].  So a class
   costs [w |det L| (1 + |x|_1)] after division by its lattice index,
   and at [s l] that is [w volume (1 + |x|_1 / s)], [x] solved at [l].
   One elimination of [l^T], carrying every class's [u^T], gives
   [det l] and the forward-substituted right-hand sides; each class
   then takes one back substitution. *)
let eval p ~volume l =
  let n = Array.length l in
  let a = p.work in
  let nc = Array.length p.classes in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      a.(i).(j) <- l.(j).(i)
    done;
    for ci = 0 to nc - 1 do
      a.(i).(n + ci) <- p.classes.(ci).u.(i)
    done
  done;
  let d = abs_float (Size.float_det_in_place a) in
  if d < 1e-9 then infinity
  else
    let s = (volume /. d) ** (1.0 /. float_of_int n) in
    let total = ref 0.0 in
    for ci = 0 to nc - 1 do
      let col = n + ci in
      let norm = ref 0.0 in
      for k = n - 1 downto 0 do
        let acc = ref a.(k).(col) in
        for j = k + 1 to n - 1 do
          acc := !acc -. (a.(k).(j) *. a.(j).(col))
        done;
        a.(k).(col) <- !acc /. a.(k).(k);
        norm := !norm +. abs_float a.(k).(col)
      done;
      total :=
        !total +. (p.classes.(ci).weight *. volume *. (1.0 +. (!norm /. s)))
    done;
    !total *. (1.0 +. (100.0 *. box_penalty ~extents:p.extents ~s l))

(* Golden-section over one entry of L; all evaluations renormalize the
   determinant, so the search is effectively over tile shape. *)
let refine_entry p ~volume l i j =
  let base = l.(i).(j) in
  let width = 2.0 +. (2.0 *. abs_float base) in
  blit_mat l p.cand;
  let f t =
    p.cand.(i).(j) <- t;
    eval p ~volume p.cand
  in
  let t =
    Rectangular.golden_section ~steps:60 f (base -. width) (base +. width)
  in
  if f t < eval p ~volume l -. 1e-12 then l.(i).(j) <- t

let descend p ~volume l =
  let n = Array.length l in
  let prev = ref infinity in
  let continue = ref true in
  let rounds = ref 0 in
  while !continue && !rounds < 25 do
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        refine_entry p ~volume l i j
      done
    done;
    let v = eval p ~volume l in
    if !prev -. v < 1e-7 *. (1.0 +. abs_float v) then continue := false;
    prev := v;
    incr rounds
  done;
  !prev

(* Renormalize, then round every entry to the nearest integer; [None]
   when either [L] is singular. *)
let round_to_int ~volume l =
  match renormalize ~volume l with
  | None -> None
  | Some lr ->
      let n = Array.length l in
      let m =
        Imat.make n n (fun i j -> int_of_float (Float.round lr.(i).(j)))
      in
      if Imat.det m = 0 then None else Some m

let optimize cost ~nprocs =
  match compile cost with
  | None -> None
  | Some p -> (
      let nest = cost.Cost.nest in
      let l_dim = Nest.nesting nest in
      let volume =
        float_of_int (Nest.iterations nest) /. float_of_int nprocs
      in
      let rect_sizes =
        Rectangular.continuous_optimum cost ~volume
          ~extents:(Nest.extents nest)
      in
      let diag_start =
        Array.init l_dim (fun i ->
            Array.init l_dim (fun j -> if i = j then rect_sizes.(i) else 0.0))
      in
      let skew_starts =
        (* Unit skews of the rectangular start in every off-diagonal
           direction and orientation. *)
        List.concat_map
          (fun (i, j) ->
            List.map
              (fun sgn ->
                let m = copy_mat diag_start in
                m.(i).(j) <- sgn *. rect_sizes.(i);
                m)
              [ 1.0; -1.0 ])
          (List.concat_map
             (fun i ->
               List.filter_map
                 (fun j -> if i <> j then Some (i, j) else None)
                 (List.init l_dim Fun.id))
             (List.init l_dim Fun.id))
      in
      let best = ref None in
      List.iter
        (fun start ->
          let l = copy_mat start in
          let v = descend p ~volume l in
          match !best with
          | Some (_, bv) when bv <= v -> ()
          | _ -> best := Some (l, v))
        (diag_start :: skew_starts);
      match !best with
      | None -> None
      | Some (l, continuous_cost) -> (
          let l = Option.value (renormalize ~volume l) ~default:l in
          match round_to_int ~volume l with
          | None -> None
          | Some li ->
              let rounded_cost =
                objective_at p
                  (Array.init l_dim (fun i ->
                       Array.init l_dim (fun j ->
                           float_of_int (Imat.get li i j))))
              in
              let rect = objective_at p diag_start in
              Some
                {
                  l = li;
                  tile = Tile.pped li;
                  continuous_l = l;
                  continuous_cost;
                  rounded_cost;
                  rect_cost = rect;
                  improves_on_rect = continuous_cost < rect -. 1e-6;
                }))

let pp_result ppf r =
  Format.fprintf ppf
    "@[<v>L =@,%a@,continuous cost: %.2f@,rounded cost: %.2f@,best \
     rectangular cost: %.2f@,parallelepiped improves: %b@]"
    Imat.pp r.l r.continuous_cost r.rounded_cost r.rect_cost
    r.improves_on_rect
