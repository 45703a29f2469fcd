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
  index : float;  (* lattice index [|det G'|] *)
  g1 : float array array;  (* column-selected G, square nonsingular *)
  spread : float array;  (* reduced spread row *)
}

(* The compiled objective plus the scratch matrices every evaluation
   writes.  One is built per call and never shared, so calls from
   several domains stay independent. *)
type compiled = {
  classes : compiled_class array;
  extents : float array;
  lr : float array array;  (* the renormalized L *)
  lg : float array array;  (* L G1 *)
  work : float array array;  (* float_det's elimination matrix *)
  cand : float array array;  (* refine_entry's candidate L *)
}

(* [None] when rank(G) < nesting: a constant reference, a projection or a
   rank-deficient class.  Otherwise the column-selected G is square
   nonsingular, so it has no zero row and is its own reduction. *)
let compile_class n (c : Cost.class_cost) =
  let g = c.Cost.cls.Uniform.g in
  if Imat.rank g < n then None
  else
    let red = Size.reduce ~g ~spread:(Uniform.spread c.Cost.cls) in
    let g1 = red.Size.g_reduced in
    Some
      {
        weight = float_of_int c.Cost.sync_weight;
        index = float_of_int (abs (Imat.det g1));
        g1 =
          Array.init n (fun k ->
              Array.init n (fun j -> float_of_int (Imat.get g1 k j)));
        spread = Array.map float_of_int red.Size.spread_reduced;
      }

let compile cost =
  let nest = cost.Cost.nest in
  let n = Nest.nesting nest in
  let classes = List.filter_map (compile_class n) cost.Cost.classes in
  if List.compare_lengths classes cost.Cost.classes <> 0 then None
  else
    let mat () = Array.make_matrix n n 0.0 in
    Some
      {
        classes = Array.of_list classes;
        extents = Array.map float_of_int (Nest.extents nest);
        lr = mat ();
        lg = mat ();
        work = mat ();
        cand = mat ();
      }

let blit_mat src dst =
  Array.iteri (fun i row -> Array.blit row 0 dst.(i) 0 (Array.length row)) src

(* [det LG] with row [replace] (none when out of range) swapped for the
   spread row. *)
let det_lg p ~replace spread =
  let n = Array.length p.lg in
  for i = 0 to n - 1 do
    Array.blit (if i = replace then spread else p.lg.(i)) 0 p.work.(i) 0 n
  done;
  Size.float_det_in_place p.work

(* Theorem 2 per class, divided by its lattice index and weighted:
   [Size.pped_cumulative_float]'s operations in its order, on scratch. *)
let objective_at p l =
  let n = Array.length l in
  let total = ref 0.0 in
  for ci = 0 to Array.length p.classes - 1 do
    let c = p.classes.(ci) in
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        let acc = ref 0.0 in
        for k = 0 to n - 1 do
          acc := !acc +. (l.(i).(k) *. c.g1.(k).(j))
        done;
        p.lg.(i).(j) <- !acc
      done
    done;
    let v = ref (abs_float (det_lg p ~replace:(-1) c.spread)) in
    for i = 0 to n - 1 do
      v := !v +. abs_float (det_lg p ~replace:i c.spread)
    done;
    total := !total +. (c.weight *. (!v /. c.index))
  done;
  !total

let objective cost l =
  match compile cost with None -> infinity | Some p -> objective_at p l

let copy_mat m = Array.map Array.copy m

(* The tile must fit inside the iteration space: the bounding box of the
   tile (sum of |edge| per dimension) may not exceed the extents.  Without
   this constraint the solver degenerates to infinitely long, thin tiles
   along a communication-free direction. *)
let box_penalty ~extents l =
  let n = Array.length l in
  let pen = ref 0.0 in
  for k = 0 to n - 1 do
    let bbox = ref 0.0 in
    for i = 0 to n - 1 do
      bbox := !bbox +. abs_float l.(i).(k)
    done;
    let ratio = !bbox /. extents.(k) in
    if ratio > 1.0 then pen := !pen +. ((ratio -. 1.0) ** 2.0)
  done;
  !pen

(* Scale [l] into [dst] so that [|det dst| = volume]; false when [l] is
   numerically singular. *)
let renormalize p ~volume l ~dst =
  let n = Array.length l in
  blit_mat l p.work;
  let d = abs_float (Size.float_det_in_place p.work) in
  if d < 1e-9 then false
  else begin
    let s = (volume /. d) ** (1.0 /. float_of_int n) in
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        dst.(i).(j) <- l.(i).(j) *. s
      done
    done;
    true
  end

let eval p ~volume l =
  if not (renormalize p ~volume l ~dst:p.lr) then infinity
  else
    let base = objective_at p p.lr in
    base *. (1.0 +. (100.0 *. box_penalty ~extents:p.extents p.lr))

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

let round_to_int p ~volume l =
  (* Round entries; small entries snap to the nearest integer, then the
     result is checked for nonsingularity. *)
  if not (renormalize p ~volume l ~dst:p.lr) then None
  else
    let n = Array.length l in
    let m =
      Imat.make n n (fun i j -> int_of_float (Float.round p.lr.(i).(j)))
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
          ignore (renormalize p ~volume l ~dst:l);
          match round_to_int p ~volume l with
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
