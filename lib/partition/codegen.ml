open Intmath
open Matrixkit
open Loopir

type schedule = {
  nest : Nest.t;
  tile : Tile.t;
  nprocs : int;
  origin : Ivec.t;
}

let make nest tile ~nprocs =
  if nprocs < 1 then invalid_arg "Codegen.make: nprocs < 1";
  if Tile.nesting tile <> Nest.nesting nest then
    invalid_arg "Codegen.make: tile/nest dimension mismatch";
  let origin = Array.map fst (Nest.bounds nest) in
  { nest; tile; nprocs; origin }

type box = (int * int) array

let rec iter_from (b : box) f (point : Ivec.t) k =
  if k = Array.length b then f point
  else
    for v = fst b.(k) to snd b.(k) do
      point.(k) <- v;
      iter_from b f point (k + 1)
    done

let iter_box b f = iter_from b f (Array.make (Array.length b) 0) 0

let box_volume (b : box) =
  Array.fold_left
    (fun acc (lo, hi) -> if hi < lo then 0 else acc * (hi - lo + 1))
    1 b

let iter_boxes boxes f = Array.iter (fun b -> iter_box b f) boxes

(* The boxes covering positions [lo, hi) of the box's lexicographic
   order, in that order: per axis a partial head block, a block of whole
   rows and a partial tail block - at most [2d - 1] boxes, passed in one
   scratch array. *)
let iter_range (b : box) =
  let d = Array.length b in
  (* row.(k): the points one step along axis [k] spans. *)
  let row =
    Array.init d (fun k -> box_volume (Array.sub b (k + 1) (d - k - 1)))
  in
  let cur = Array.copy b in
  let rec go f k lo hi =
    let r = row.(k) in
    let first = lo / r and last = (hi - 1) / r in
    if first = last && k < d - 1 then
      within f k first (lo - (first * r)) (hi - (first * r))
    else begin
      let whole_lo = if lo mod r = 0 then first else first + 1 in
      let whole_hi = if hi mod r = 0 then last else last - 1 in
      if whole_lo > first then within f k first (lo mod r) r;
      if whole_lo <= whole_hi then begin
        cur.(k) <- (fst b.(k) + whole_lo, fst b.(k) + whole_hi);
        Array.blit b (k + 1) cur (k + 1) (d - k - 1);
        f cur
      end;
      if whole_hi < last then within f k last 0 (hi mod r)
    end
  (* Axis [k] fixed at [v]; positions [lo, hi) of the axes below. *)
  and within f k v lo hi =
    cur.(k) <- (fst b.(k) + v, fst b.(k) + v);
    go f (k + 1) lo hi
  in
  fun lo hi (f : box -> unit) -> if lo < hi then go f 0 lo hi

(* Partial application [tile_id s] computes the tile's adjugate once. *)
let tile_id s =
  let coords = Tile.tile_coords s.tile in
  fun (i : Ivec.t) -> coords (Ivec.sub i s.origin)

(* Bounding box of tile coordinates, derived from the iteration-space
   corners: tile coordinates are the floor of a linear map, so corner
   coordinates bound all others. *)
let coord_box s =
  let bounds = Nest.bounds s.nest in
  let n = Array.length bounds in
  let lo = Array.make n max_int and hi = Array.make n min_int in
  let id = tile_id s in
  (* A corner picks the lower (0) or upper (1) bound on each axis. *)
  iter_box (Array.make n (0, 1)) (fun pick ->
      let corner =
        Array.mapi (fun k (l, h) -> if pick.(k) = 0 then l else h) bounds
      in
      Array.iteri
        (fun k v ->
          if v < lo.(k) then lo.(k) <- v;
          if v > hi.(k) then hi.(k) <- v)
        (id corner));
  (lo, hi)

let linearize s =
  let lo, hi = coord_box s in
  let radix = Array.mapi (fun k h -> h - lo.(k) + 1) hi in
  fun coords ->
    let acc = ref 0 in
    Array.iteri
      (fun k c -> acc := (!acc * radix.(k)) + (c - lo.(k)))
      coords;
    !acc

let proc_of s lin = Int_math.floor_mod lin s.nprocs

(* Partial application [owner s] precomputes the coordinate box and the
   tile's adjugate; reuse the closure when classifying many iterations. *)
let owner s =
  let lin = linearize s and id = tile_id s in
  fun i -> proc_of s (lin (id i))

(* Each tile coordinate [floor((a + c x) / det)] along one row (with
   [a] fixed by the outer axes and [c] the innermost row of [adj L]) is
   monotone in the innermost coordinate [x], so a row splits into
   maximal runs ending where the first coordinate steps - closed form,
   no per-point work.  A rectangle's [adj L] is diagonal. *)
let runs tile ~(origin : Ivec.t) (bounds : box) f =
  let d = Array.length bounds in
  let last = d - 1 in
  let adj, det = Tile.adjugate tile in
  (* Scale so the divisor is positive: floor(a / det) is unchanged. *)
  let sign = if det < 0 then -1 else 1 in
  let scaled v = Array.map (fun x -> sign * x) (Imat.mul_row v adj) in
  let det = sign * det and o = origin.(last) in
  let step = scaled (Array.init d (fun i -> if i = last then 1 else 0)) in
  let coords = Array.make d 0 in
  let sweep_row (outer : Ivec.t) =
    let base =
      scaled
        (Array.init d (fun i -> if i = last then 0 else outer.(i) - origin.(i)))
    in
    let x = ref (fst bounds.(last)) and hi = snd bounds.(last) in
    while !x <= hi do
      let stop = ref hi in
      for j = 0 to last do
        let a = base.(j) and c = step.(j) in
        let t = Int_math.floor_div (a + (c * (!x - o))) det in
        coords.(j) <- t;
        (* The first [x' - o] past [x - o] whose coordinate differs. *)
        let next =
          if c > 0 then Int_math.ceil_div (((t + 1) * det) - a) c
          else if c < 0 then Int_math.floor_div (a - (t * det)) (-c) + 1
          else max_int - o
        in
        stop := min !stop (next - 1 + o)
      done;
      f coords
        (Array.init d (fun k ->
             if k = last then (!x, !stop) else (outer.(k), outer.(k))));
      x := !stop + 1
    done
  in
  iter_box (Array.sub bounds 0 last) sweep_row

(* A rectangular tile is one clipped box; a parallelepiped collects the
   runs of the row sweep by tile number. *)
let tiles s =
  let bounds = Nest.bounds s.nest in
  let lin = linearize s in
  let tile id boxes = (proc_of s id, boxes) in
  match s.tile with
  | Tile.Rect sizes ->
      let out = ref [] in
      let counts =
        Array.mapi
          (fun k (lo, hi) -> (0, Int_math.ceil_div (hi - lo + 1) sizes.(k) - 1))
          bounds
      in
      iter_box counts (fun t ->
          let box =
            Array.mapi
              (fun k (lo, hi) ->
                let tlo = lo + (t.(k) * sizes.(k)) in
                (tlo, min hi (tlo + sizes.(k) - 1)))
              bounds
          in
          out := tile (lin t) [| box |] :: !out);
      Array.of_list (List.rev !out)
  | Tile.Pped _ ->
      let found = Hashtbl.create 16 in
      runs s.tile ~origin:s.origin bounds (fun coords box ->
          let id = lin coords in
          match Hashtbl.find_opt found id with
          | Some boxes -> boxes := box :: !boxes
          | None -> Hashtbl.add found id (ref [ box ]));
      let ids = Array.of_seq (Hashtbl.to_seq_keys found) in
      Array.sort compare ids;
      Array.map
        (fun id -> tile id (Array.of_list (List.rev !(Hashtbl.find found id))))
        ids

let num_tiles s =
  match s.tile with
  | Tile.Rect sizes ->
      let extents = Nest.extents s.nest in
      Array.to_list extents
      |> List.mapi (fun k n -> Int_math.ceil_div n sizes.(k))
      |> Int_math.prod
  | Tile.Pped _ -> Array.length (tiles s)

let iterations_by_proc s =
  let out = Array.make s.nprocs [] and lin = linearize s in
  runs s.tile ~origin:s.origin (Nest.bounds s.nest) (fun coords box ->
      let p = proc_of s (lin coords) in
      out.(p) <- box :: out.(p));
  Array.map (fun l -> Array.of_list (List.rev l)) out

let emit_pseudocode s =
  let buf = Buffer.create 256 in
  let vars = Nest.vars s.nest in
  (match s.tile with
  | Tile.Rect sizes ->
      Buffer.add_string buf
        (Printf.sprintf "// SPMD code for %d processors, tile %s\n" s.nprocs
           (Tile.to_string s.tile));
      Buffer.add_string buf "my_tiles = tiles t with linear(t) mod P == me\n";
      Buffer.add_string buf "for t in my_tiles:\n";
      Array.iteri
        (fun k v ->
          Buffer.add_string buf
            (Printf.sprintf "%sfor %s = t%d*%d + %d to min(t%d*%d + %d, %d):\n"
               (String.make (2 * (k + 1)) ' ')
               v k sizes.(k) s.origin.(k) k sizes.(k)
               (s.origin.(k) + sizes.(k) - 1)
               (snd (Nest.bounds s.nest).(k))))
        vars;
      Buffer.add_string buf
        (String.make (2 * (Array.length vars + 1)) ' ' ^ "body\n")
  | Tile.Pped l ->
      Buffer.add_string buf
        (Printf.sprintf
           "// SPMD code for %d processors, parallelepiped tile\n" s.nprocs);
      Buffer.add_string buf (Imat.to_string l);
      Buffer.add_string buf
        "\nfor t in my_tiles: for (row, lo, hi) in runs(t): for x = lo to hi: \
         body\n// runs: rows cut where floor((i - o) adj L / det L) steps\n");
  Buffer.contents buf

let load_balance s =
  let per = Array.make s.nprocs 0 in
  Array.iter
    (fun (p, boxes) ->
      Array.iter (fun b -> per.(p) <- per.(p) + box_volume b) boxes)
    (tiles s);
  let mn = Array.fold_left min max_int per in
  let mx = Array.fold_left max 0 per in
  let total = Array.fold_left ( + ) 0 per in
  (* More processors than iterations leaves some with nothing; the ratio
     max/average is still well-defined (average > 0 whenever any
     iteration exists), but guard the degenerate empty case so callers
     never see NaN. *)
  let imbalance =
    if total = 0 then 1.0
    else float_of_int mx /. (float_of_int total /. float_of_int s.nprocs)
  in
  (mn, mx, imbalance)
