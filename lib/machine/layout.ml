open Matrixkit
open Loopir

type entry = {
  base : int;
  lo : int array;
  hi : int array;
  strides : int array;  (* row-major; last dimension has stride 1 *)
  volume : int;
}

type t = { entries : (string * entry) list; total : int }

let round_up v align = (v + align - 1) / align * align

let of_nest ?(line_align = 1) nest =
  if line_align < 1 then invalid_arg "Layout.of_nest: line_align < 1";
  let boxes = Nest.array_bounding_boxes nest in
  let next = ref 0 in
  let entries =
    List.map
      (fun (name, (lo, hi)) ->
        let d = Array.length lo in
        let dims = Array.init d (fun j -> hi.(j) - lo.(j) + 1) in
        let strides = Array.make d 1 in
        for j = d - 2 downto 0 do
          strides.(j) <- strides.(j + 1) * dims.(j + 1)
        done;
        let volume = Array.fold_left ( * ) 1 dims in
        let base = round_up !next line_align in
        next := base + volume;
        (name, { base; lo; hi; strides; volume }))
      boxes
  in
  { entries; total = !next }

let entry t name =
  match List.assoc_opt name t.entries with
  | Some e -> e
  | None -> invalid_arg (Printf.sprintf "Layout: unknown array %s" name)

let address t name (point : Ivec.t) =
  let e = entry t name in
  let d = Array.length e.lo in
  if Array.length point <> d then
    invalid_arg "Layout.address: dimension mismatch";
  let acc = ref e.base in
  for j = 0 to d - 1 do
    if point.(j) < e.lo.(j) || point.(j) > e.hi.(j) then
      invalid_arg
        (Printf.sprintf "Layout.address: %s%s outside bounding box" name
           (Ivec.to_string point));
    acc := !acc + ((point.(j) - e.lo.(j)) * e.strides.(j))
  done;
  !acc

let element_of t addr =
  let found =
    List.find_opt
      (fun (_, e) -> addr >= e.base && addr < e.base + e.volume)
      t.entries
  in
  match found with
  | None -> invalid_arg "Layout.element_of: address in padding or out of range"
  | Some (name, e) ->
      let off = ref (addr - e.base) in
      let coords =
        Array.mapi
          (fun j stride ->
            let c = !off / stride in
            off := !off mod stride;
            c + e.lo.(j))
          e.strides
      in
      (name, Array.to_list coords)

type cref = { c : int; m : int array }

(* Fold [base + sum_j (g(i)_j - lo_j) * stride_j] with [g(i) = i G + a]
   into [c + m . i]: [c] collects the offset terms, [m.(k)] row [k] of
   [G] dotted with the strides. *)
let compile t (r : Reference.t) =
  let e = entry t r.Reference.array_name in
  let g = Affine.g r.Reference.index in
  let offset = Affine.offset r.Reference.index in
  let d = Array.length e.strides in
  let c = ref e.base in
  for j = 0 to d - 1 do
    c := !c + ((offset.(j) - e.lo.(j)) * e.strides.(j))
  done;
  let m =
    Array.init (Imat.rows g) (fun k ->
        let acc = ref 0 in
        for j = 0 to d - 1 do
          acc := !acc + (Imat.get g k j * e.strides.(j))
        done;
        !acc)
  in
  { c = !c; m }

let total_elements t = t.total

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun (name, e) ->
      Format.fprintf ppf "%s: base %d, box %s..%s (%d elements)@," name e.base
        (Ivec.to_string e.lo) (Ivec.to_string e.hi) e.volume)
    t.entries;
  Format.fprintf ppf "total: %d@]" t.total
