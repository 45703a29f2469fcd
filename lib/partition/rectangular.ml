open Intmath
open Loopir

type result = {
  grid : int array;
  sizes : int array;
  tile : Tile.t;
  predicted_misses_per_tile : int;
  predicted_traffic_per_tile : int;
  continuous_sizes : float array;
  continuous_cost : float;
  cost : Cost.t;
}

(* ------------------------------------------------------------------ *)
(* Continuous relaxation                                               *)
(* ------------------------------------------------------------------ *)

let golden_section ~steps f lo hi =
  let phi = (sqrt 5.0 -. 1.0) /. 2.0 in
  let a = ref lo and b = ref hi in
  let c = ref (!b -. (phi *. (!b -. !a))) in
  let d = ref (!a +. (phi *. (!b -. !a))) in
  let fc = ref (f !c) and fd = ref (f !d) in
  for _ = 1 to steps do
    if !fc < !fd then begin
      b := !d;
      d := !c;
      fd := !fc;
      c := !b -. (phi *. (!b -. !a));
      fc := f !c
    end
    else begin
      a := !c;
      c := !d;
      fc := !fd;
      d := !a +. (phi *. (!b -. !a));
      fd := f !d
    end
  done;
  (!a +. !b) /. 2.0

let continuous_minimize objective ~volume ~extents =
  let l = Array.length extents in
  let n = Array.map float_of_int extents in
  (* Feasible start: x_k proportional to N_k with product = volume,
     clipped into the box and renormalized. *)
  let x = Array.make l 1.0 in
  let total = Array.fold_left ( *. ) 1.0 n in
  let scale = (volume /. total) ** (1.0 /. float_of_int l) in
  Array.iteri (fun k nk -> x.(k) <- Float.max 1.0 (Float.min nk (nk *. scale))) n;
  (* Renormalize the product to [volume] by scaling free coordinates. *)
  let renormalize () =
    (* Repeated scale-and-clip converges to a feasible product when
       [volume <= prod extents]. *)
    for _ = 1 to 20 do
      let p = Array.fold_left ( *. ) 1.0 x in
      let s = (volume /. p) ** (1.0 /. float_of_int l) in
      Array.iteri
        (fun k v -> x.(k) <- Float.max 1.0 (Float.min n.(k) (v *. s)))
        x
    done
  in
  renormalize ();
  if l >= 2 then begin
    let eval () = objective x in
    let pass () =
      for i = 0 to l - 1 do
        for j = 0 to l - 1 do
          if i <> j then begin
            let xi = x.(i) and xj = x.(j) in
            (* x_i <- x_i * s, x_j <- x_j / s keeps the product. *)
            let lo = Float.max (1.0 /. xi) (xj /. n.(j))
            and hi = Float.min (n.(i) /. xi) xj in
            if hi > lo *. (1.0 +. 1e-12) then begin
              let f s =
                x.(i) <- xi *. s;
                x.(j) <- xj /. s;
                let v = eval () in
                x.(i) <- xi;
                x.(j) <- xj;
                v
              in
              (* Search in log space for scale invariance. *)
              let g t = f (exp t) in
              let t = golden_section ~steps:80 g (log lo) (log hi) in
              let s = exp t in
              x.(i) <- xi *. s;
              x.(j) <- xj /. s
            end
          end
        done
      done
    in
    let prev = ref infinity in
    let continue = ref true in
    let rounds = ref 0 in
    while !continue && !rounds < 60 do
      pass ();
      let v = eval () in
      if !prev -. v < 1e-9 *. (1.0 +. abs_float v) then continue := false;
      prev := v;
      incr rounds
    done
  end;
  x

let continuous_optimum cost ~volume ~extents =
  continuous_minimize (Cost.eval_objective cost) ~volume ~extents

(* ------------------------------------------------------------------ *)
(* Discrete grid search                                                *)
(* ------------------------------------------------------------------ *)

let grids nprocs extents =
  let l = Array.length extents in
  List.filter
    (fun fs -> List.for_all2 (fun p n -> p <= n) fs (Array.to_list extents))
    (Int_math.factorizations l nprocs)

let sizes_of_grid extents grid =
  Array.of_list
    (List.mapi (fun k p -> Int_math.ceil_div extents.(k) p) grid)

let optimize cost ~nprocs =
  if nprocs < 1 then invalid_arg "Rectangular.optimize: nprocs < 1";
  let nest = cost.Cost.nest in
  let extents = Nest.extents nest in
  let volume =
    float_of_int (Nest.iterations nest) /. float_of_int nprocs
  in
  let continuous_sizes = continuous_optimum cost ~volume ~extents in
  let continuous_cost = Cost.eval_objective cost continuous_sizes in
  let candidates = grids nprocs extents in
  if candidates = [] then
    invalid_arg
      (Printf.sprintf
         "Rectangular.optimize: no feasible grid of %d processors for \
          extents %s (too many processors for the iteration space)"
         nprocs
         (String.concat "x" (List.map string_of_int (Array.to_list extents))));
  let best = ref None in
  List.iter
    (fun grid ->
      let sizes = sizes_of_grid extents grid in
      let tile = Tile.rect sizes in
      let misses = Cost.misses_per_tile cost tile in
      let weighted =
        (* Use the sync-weighted objective for ranking. *)
        Cost.eval_objective cost (Array.map float_of_int sizes)
      in
      match !best with
      | Some (_, _, _, w, _) when w <= weighted -> ()
      | _ -> best := Some (grid, sizes, tile, weighted, misses))
    candidates;
  match !best with
  | None -> assert false
  | Some (grid, sizes, tile, _, misses) ->
      {
        grid = Array.of_list grid;
        sizes;
        tile;
        predicted_misses_per_tile = misses;
        predicted_traffic_per_tile = Cost.traffic_per_tile cost tile;
        continuous_sizes;
        continuous_cost;
        cost;
      }

(* ------------------------------------------------------------------ *)
(* Closed-form aspect ratios (Example 8 / Abraham-Hudak shape)         *)
(* ------------------------------------------------------------------ *)

let aspect_ratio cost =
  let l = Nest.nesting cost.Cost.nest in
  let poly = cost.Cost.objective in
  (* Expected monomials: the full product (degree l) and products missing
     exactly one variable (degree l-1).  Any other monomial breaks the
     closed form. *)
  let full = List.init l (fun _ -> 1) in
  let missing k = List.init l (fun i -> if i = k then 0 else 1) in
  let recognized mono =
    mono = full || List.exists (fun k -> mono = missing k) (List.init l Fun.id)
  in
  let monos = Mpoly.monomials poly in
  let pad m = List.init l (fun i -> try List.nth m i with _ -> 0) in
  if List.for_all (fun (m, _) -> recognized (pad m)) monos then
    Some
      (Array.init l (fun k -> Mpoly.coeff poly (missing k)))
  else None

let pp_result ppf r =
  Format.fprintf ppf
    "@[<v>grid: %s@,tile sizes: %s@,predicted misses/tile: %d@,predicted \
     traffic/tile: %d@,continuous optimum: (%s) cost %.1f@]"
    (String.concat "x" (List.map string_of_int (Array.to_list r.grid)))
    (String.concat "x" (List.map string_of_int (Array.to_list r.sizes)))
    r.predicted_misses_per_tile r.predicted_traffic_per_tile
    (String.concat ", "
       (List.map (Printf.sprintf "%.2f") (Array.to_list r.continuous_sizes)))
    r.continuous_cost
