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

(* A rectangular tile is one clipped box.  A parallelepiped is swept row
   by row along the innermost axis: there each tile coordinate
   [floor((a + c x) / det)] (with [a] fixed by the outer axes and [c] the
   innermost row of [adj L]) is monotone in [x], so the row splits into
   maximal runs ending where the first coordinate steps - closed form,
   no per-point work. *)
let tiles s =
  let bounds = Nest.bounds s.nest in
  let d = Array.length bounds in
  let last = d - 1 and lin = linearize s in
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
      let adj, det = Tile.adjugate s.tile in
      (* Scale so the divisor is positive: floor(a / det) is unchanged. *)
      let sign = if det < 0 then -1 else 1 in
      let scaled v = Array.map (fun x -> sign * x) (Imat.mul_row v adj) in
      let det = sign * det and o = s.origin.(last) in
      let step = scaled (Array.init d (fun i -> if i = last then 1 else 0)) in
      let coords = Array.make d 0 in
      let found = Hashtbl.create 16 in
      let add id box =
        match Hashtbl.find_opt found id with
        | Some boxes -> boxes := box :: !boxes
        | None -> Hashtbl.add found id (ref [ box ])
      in
      let sweep_row (outer : Ivec.t) =
        let base =
          scaled
            (Array.init d (fun i ->
                 if i = last then 0 else outer.(i) - s.origin.(i)))
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
          add (lin coords)
            (Array.init d (fun k ->
                 if k = last then (!x, !stop) else (outer.(k), outer.(k))));
          x := !stop + 1
        done
      in
      iter_box (Array.sub bounds 0 last) sweep_row;
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
  let out = Array.make s.nprocs [] in
  let own = owner s in
  iter_box (Nest.bounds s.nest) (fun point ->
      let p = own point in
      out.(p) <- Array.copy point :: out.(p));
  Array.map List.rev out

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
  let per = Array.map List.length (iterations_by_proc s) in
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
