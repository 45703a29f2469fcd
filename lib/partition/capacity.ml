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

(* Each run is cut where its subtile cell changes; a stable sort by
   cell keeps the pieces of one cell in lexicographic order. *)
let blocked_iterations (sched : Codegen.schedule) ~subtile =
  let origin = Array.make (Tile.nesting subtile) 0 in
  Array.map
    (fun runs ->
      let pieces = ref [] in
      Array.iter
        (fun run ->
          Codegen.runs subtile ~origin run (fun cell piece ->
              pieces := (Array.copy cell, piece) :: !pieces))
        runs;
      List.rev !pieces
      |> List.stable_sort (fun (a, _) (b, _) -> compare a b)
      |> List.map snd |> Array.of_list)
    (Codegen.iterations_by_proc sched)
