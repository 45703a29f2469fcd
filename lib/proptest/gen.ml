open Matrixkit
open Loopir

type case = {
  seed : int;
  id : int;
  nest : Nest.t;
  tile : int array;
  nprocs : int;
}

let loop_vars = [| "i"; "j"; "k" |]
let array_names = [| "A"; "B" |]

(* Extent caps per nest depth keep the iteration space small enough that
   every oracle can brute-force it (<= ~125 points, x <= 3 Doseq steps). *)
let extent_cap = function 1 -> 12 | 2 -> 8 | _ -> 5

let gen_entry rng = Prng.choose rng [| 0; 0; 0; 1; 1; -1; 2; -2 |]

(* The G-matrix shape gallery.  Dense-random already yields singular and
   non-unimodular matrices, but the structured shapes guarantee that rank
   deficiency, zero rows and dependent columns appear at every depth. *)
let gen_g rng ~depth ~dims =
  match Prng.int rng 8 with
  | 0 | 1 | 2 ->
      (* dense random, entries in -2..2 *)
      Imat.make depth dims (fun _ _ -> gen_entry rng)
  | 3 ->
      (* near-identity (truncated), occasionally perturbed off-diagonal *)
      Imat.make depth dims (fun i j ->
          if i = j then 1
          else if Prng.chance rng ~pct:20 then gen_entry rng
          else 0)
  | 4 ->
      (* rank <= 1: outer product of a row pattern and column multipliers *)
      let base = Array.init depth (fun _ -> gen_entry rng) in
      let mult = Array.init dims (fun _ -> Prng.range rng (-2) 2) in
      Imat.make depth dims (fun i j -> base.(i) * mult.(j))
  | 5 ->
      (* a zero row: a loop index the reference ignores (reduction dim) *)
      let dead = Prng.int rng depth in
      Imat.make depth dims (fun i _j -> if i = dead then 0 else gen_entry rng)
  | 6 when dims >= 2 ->
      (* dependent columns: one column duplicates another *)
      let src = Prng.int rng dims in
      let dst = (src + 1 + Prng.int rng (dims - 1)) mod dims in
      let m = Array.init depth (fun _ -> Array.init dims (fun _ -> gen_entry rng)) in
      Array.iter (fun row -> row.(dst) <- row.(src)) m;
      Imat.of_array m
  | _ ->
      (* non-unimodular skew: entries up to +-3 *)
      Imat.make depth dims (fun _ _ -> Prng.choose rng [| 0; 1; 1; -1; 2; 3; -3 |])

(* [G] with its last column [e_u] and the rest of row [u] zero: the
   innermost subscript becomes [var u + c] and no other subscript moves
   with [u], so the reference's address advances by exactly +1 along
   loop [u] (layouts are row-major). *)
let unit_row g ~depth ~dims =
  let u = depth - 1 and last = dims - 1 in
  Imat.make depth dims (fun i j ->
      if j = last then if i = u then 1 else 0
      else if i = u then 0
      else Imat.get g i j)

let gen_kind rng =
  let r = Prng.int rng 100 in
  if r < 55 then Reference.Read else if r < 85 then Reference.Write
  else Reference.Accumulate

let make_ref kind name aff =
  match kind with
  | Reference.Read -> Reference.read name aff
  | Reference.Write -> Reference.write name aff
  | Reference.Accumulate -> Reference.accumulate name aff

let generate ~seed ~id =
  let rng = Prng.case ~seed ~id in
  let depth = Prng.range rng 1 3 in
  let cap = extent_cap depth in
  let loops =
    List.init depth (fun k ->
        let lower = Prng.range rng (-2) 2 in
        let extent = Prng.range rng 1 cap in
        Nest.loop loop_vars.(k) lower (lower + extent - 1))
  in
  let seq =
    if Prng.chance rng ~pct:25 then Some (Nest.loop "t" 1 (Prng.range rng 2 3))
    else None
  in
  let narrays = Prng.range rng 1 2 in
  let dims_of = Array.init narrays (fun _ -> Prng.range rng 1 3) in
  let nrefs = Prng.range rng 1 6 in
  (* Cases whose every innermost subscript is [var u + c] reach the
     kernel's unit-stride rows (oracle 8) whenever the body has one
     write-like reference and at most five reads. *)
  let rows = Prng.chance rng ~pct:40 in
  let seen_g : (int, Imat.t list) Hashtbl.t = Hashtbl.create 4 in
  let refs =
    List.init nrefs (fun _ ->
        let a = Prng.int rng narrays in
        let dims = dims_of.(a) in
        let prior = Option.value ~default:[] (Hashtbl.find_opt seen_g a) in
        let g =
          (* Reusing a previous G for the same array (with a fresh offset)
             is what produces multi-member uniformly intersecting classes,
             the input the cumulative-footprint oracles need. *)
          if prior <> [] && Prng.chance rng ~pct:50 then
            Prng.choose rng (Array.of_list prior)
          else begin
            let g = gen_g rng ~depth ~dims in
            Hashtbl.replace seen_g a (g :: prior);
            g
          end
        in
        let g = if rows then unit_row g ~depth ~dims else g in
        let offset = Array.init dims (fun _ -> Prng.range rng (-3) 3) in
        make_ref (gen_kind rng) array_names.(a) (Affine.make g offset))
  in
  (* Half the unit-row cases with a write also read that write's
     element one back along the innermost subscript: the value the
     row's previous point stored.  The kernel's two-point trips must
     then load the second point after storing the first (oracle 8). *)
  let refs =
    match List.find_opt Reference.is_write_like refs with
    | Some w when rows && Prng.chance rng ~pct:50 ->
        let offset = Array.copy (Affine.offset w.Reference.index) in
        let last = Array.length offset - 1 in
        offset.(last) <- offset.(last) - 1;
        let back = Affine.make (Affine.g w.Reference.index) offset in
        Reference.read w.Reference.array_name back :: refs
    | Some _ | None -> refs
  in
  let nest =
    Nest.make ~name:(Printf.sprintf "fuzz-%d-%d" seed id) ?seq loops refs
  in
  let extents = Nest.extents nest in
  let tile = Array.map (fun n -> Prng.range rng 1 n) extents in
  let nprocs = Prng.range rng 1 4 in
  { seed; id; nest; tile; nprocs }

let build ~seed ~id ?seq loops refs ~tile ~nprocs =
  let nest =
    Nest.make ~name:(Printf.sprintf "fuzz-%d-%d" seed id) ?seq loops refs
  in
  if Array.length tile <> List.length loops then
    invalid_arg "Gen.build: tile rank mismatch";
  Array.iteri
    (fun k t ->
      if t < 1 || t > (Nest.extents nest).(k) then
        invalid_arg "Gen.build: tile size out of range")
    tile;
  if nprocs < 1 then invalid_arg "Gen.build: nprocs < 1";
  { seed; id; nest; tile; nprocs }

let weight c =
  let nest = c.nest in
  let abs_sum_mat m =
    let s = ref 0 in
    for i = 0 to Imat.rows m - 1 do
      for j = 0 to Imat.cols m - 1 do
        s := !s + abs (Imat.get m i j)
      done
    done;
    !s
  in
  let refs_w =
    List.fold_left
      (fun acc (r : Reference.t) ->
        acc + 8
        + abs_sum_mat (Affine.g r.index)
        + Array.fold_left (fun a x -> a + abs x) 0 (Affine.offset r.index))
      0 nest.Nest.body
  in
  let bounds_w =
    List.fold_left (fun acc (l : Nest.loop) -> acc + abs l.lower) 0 nest.Nest.loops
  in
  let seq_w =
    match nest.Nest.seq with None -> 0 | Some l -> 2 + (l.upper - l.lower)
  in
  (4 * Nest.iterations nest)
  + (30 * Nest.nesting nest)
  + refs_w + bounds_w + seq_w
  + Array.fold_left ( + ) 0 c.tile
  + (2 * c.nprocs)

let pp ppf c =
  Format.fprintf ppf "@[<v>%a@,tile: %s  nprocs: %d  (seed %d, case %d)@]"
    Nest.pp c.nest
    (String.concat "x" (List.map string_of_int (Array.to_list c.tile)))
    c.nprocs c.seed c.id

let to_string c = Format.asprintf "%a" pp c
