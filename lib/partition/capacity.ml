let footprint = Cost.misses_per_tile

let fits cost tile ~capacity = footprint cost tile <= capacity

let subtile cost tile ~capacity =
  match tile with
  | Tile.Pped _ ->
      invalid_arg "Capacity.subtile: parallelepiped tiles not supported"
  | Tile.Rect sizes0 ->
      let sizes = Array.copy sizes0 in
      let rec shrink () =
        if fits cost (Tile.rect sizes) ~capacity then Tile.rect sizes
        else begin
          (* Halve the largest dimension; give up at the unit tile. *)
          let k = ref 0 in
          Array.iteri (fun i s -> if s > sizes.(!k) then k := i) sizes;
          if sizes.(!k) <= 1 then
            invalid_arg
              (Printf.sprintf
                 "Capacity.subtile: a single iteration needs more than %d \
                  elements"
                 capacity)
          else begin
            sizes.(!k) <- (sizes.(!k) + 1) / 2;
            shrink ()
          end
        end
      in
      shrink ()

(* Each tile is cut under the subtile anchored at the tile's lower
   corner; a stable sort by cell keeps the pieces of one cell in
   lexicographic order. *)
let blocked_iterations (sched : Codegen.schedule) ~subtile =
  let block boxes =
    let origin =
      Array.fold_left
        (fun lo b -> Array.mapi (fun k l -> min l (fst b.(k))) lo)
        (Array.map fst boxes.(0))
        boxes
    in
    let pieces = ref [] in
    Array.iter
      (fun box ->
        Codegen.runs subtile ~origin box (fun cell piece ->
            pieces := (Array.copy cell, piece) :: !pieces))
      boxes;
    List.rev !pieces
    |> List.stable_sort (fun (a, _) (b, _) -> compare a b)
    |> List.map snd |> Array.of_list
  in
  Scheduling.of_tiles
    (Array.map (fun (o, boxes) -> (o, block boxes)) (Codegen.tiles sched))
