open Matrixkit

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

let blocked_iterations (sched : Codegen.schedule) ~subtile =
  let per = Codegen.iterations_by_proc sched in
  let coords = Tile.tile_coords subtile in
  let key (it : Ivec.t) = (Array.to_list (coords it), Array.to_list it) in
  Array.map
    (fun iters ->
      List.stable_sort (fun a b -> compare (key a) (key b)) iters)
    per
