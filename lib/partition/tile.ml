open Intmath
open Matrixkit

type t = Rect of int array | Pped of Imat.t

let rect sizes =
  if Array.length sizes = 0 then invalid_arg "Tile.rect: empty";
  if Array.exists (fun s -> s < 1) sizes then
    invalid_arg "Tile.rect: sizes must be >= 1";
  Rect (Array.copy sizes)

let pped l =
  if not (Imat.is_square l) then invalid_arg "Tile.pped: L must be square";
  if Imat.det l = 0 then invalid_arg "Tile.pped: singular L";
  Pped l

let nesting = function Rect s -> Array.length s | Pped l -> Imat.rows l

let lambda = function
  | Rect s -> Array.map (fun x -> x - 1) s
  | Pped _ -> invalid_arg "Tile.lambda: not a rectangular tile"

let l_matrix = function
  | Rect s ->
      Qmat.make (Array.length s) (Array.length s) (fun i j ->
          if i = j then Rat.of_int s.(i) else Rat.zero)
  | Pped l -> Qmat.of_imat l

let volume t = Rat.abs (Qmat.det (l_matrix t))

let adjugate t =
  let l = match t with Rect s -> Imat.diag s | Pped l -> l in
  let n = Imat.rows l in
  let others k = List.filter (( <> ) k) (List.init n Fun.id) in
  (* Cofactor (j, i): the minor without row j and column i. *)
  let cofactor i j =
    let sign = if (i + j) land 1 = 0 then 1 else -1 in
    if n = 1 then sign
    else
      let minor = Imat.select_cols (Imat.select_rows l (others j)) (others i) in
      sign * Imat.det minor
  in
  (Imat.make n n cofactor, Imat.det l)

(* Half-open tile coordinates: the partition of the iteration space into
   translated copies of the tile assigns point [i] to the integer vector
   [floor(i * L^-1)] = [floor(i * adj L / det L)]. *)
let tile_coords t =
  let n = nesting t and adj, det = adjugate t in
  fun (point : Ivec.t) ->
    if Array.length point <> n then
      invalid_arg "Tile.tile_coords: dimension mismatch";
    Array.map (fun v -> Int_math.floor_div v det) (Imat.mul_row point adj)

let contains t =
  let coords = tile_coords t in
  fun point -> Array.for_all (fun c -> c = 0) (coords point)

let iterations t =
  match t with
  | Rect s ->
      let n = Array.length s in
      let rec go k acc =
        if k = n then [ Array.of_list (List.rev acc) ]
        else
          List.concat_map (fun v -> go (k + 1) (v :: acc)) (List.init s.(k) Fun.id)
      in
      go 0 []
  | Pped l ->
      (* Scan the bounding box of the vertex set and keep half-open
         members. *)
      let n = Imat.rows l in
      let lo = Array.make n 0 and hi = Array.make n 0 in
      let rec corners k acc =
        if k = n then [ acc ] else corners (k + 1) acc @ corners (k + 1) (Ivec.add acc (Imat.row l k))
      in
      List.iter
        (fun v ->
          Array.iteri
            (fun j x ->
              if x < lo.(j) then lo.(j) <- x;
              if x > hi.(j) then hi.(j) <- x)
            v)
        (corners 0 (Ivec.zero n));
      let inside = contains t in
      let out = ref [] in
      let point = Array.make n 0 in
      let rec scan k =
        if k = n then begin
          if inside point then out := Array.copy point :: !out
        end
        else
          for v = lo.(k) to hi.(k) do
            point.(k) <- v;
            scan (k + 1)
          done
      in
      scan 0;
      List.rev !out

let equal a b =
  match (a, b) with
  | Rect x, Rect y -> Array.length x = Array.length y && Array.for_all2 ( = ) x y
  | Pped x, Pped y -> Imat.equal x y
  | Rect _, Pped _ | Pped _, Rect _ -> false

let pp ppf = function
  | Rect s ->
      Format.fprintf ppf "rect[%s]"
        (String.concat "x" (List.map string_of_int (Array.to_list s)))
  | Pped l -> Format.fprintf ppf "pped@,%a" Imat.pp l

let to_string t = Format.asprintf "%a" pp t
