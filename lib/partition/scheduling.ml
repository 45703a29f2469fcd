open Loopir

type box = Codegen.box
type tile = box array
type tiled = { tiles : tile array; owners : int array; steal : bool }

type work =
  | Tiled of tiled
  | Dynamic of { space : box; chunk : remaining:int -> int }

let tiled ~steal (tiles : (int * tile) array) =
  { tiles = Array.map snd tiles; owners = Array.map fst tiles; steal }

let of_tiles tiles = Tiled (tiled ~steal:false tiles)

let pieces ~chunk tiles =
  if chunk < 1 then invalid_arg "Scheduling.pieces: chunk < 1";
  let out = ref [] in
  Array.iter
    (fun (owner, boxes) ->
      let piece = ref [] and filled = ref 0 in
      let emit () =
        if !piece <> [] then
          out := (owner, Array.of_list (List.rev !piece)) :: !out;
        piece := [];
        filled := 0
      in
      Array.iter
        (fun b ->
          let range = Codegen.iter_range b and n = Codegen.box_volume b in
          let at = ref 0 in
          while !at < n do
            let take = min (chunk - !filled) (n - !at) in
            range !at (!at + take) (fun p -> piece := Array.copy p :: !piece);
            at := !at + take;
            filled := !filled + take;
            if !filled = chunk then emit ()
          done)
        boxes;
      emit ())
    tiles;
  Tiled (tiled ~steal:true (Array.of_list (List.rev !out)))

let per_proc ~nprocs work =
  let out = Array.make nprocs [] in
  (match work with
  | Tiled { tiles; owners; _ } ->
      Array.iteri (fun t o -> out.(o) <- tiles.(t) :: out.(o)) owners
  | Dynamic { space; chunk } ->
      (* The claims of [Pool.Counter], dealt round-robin. *)
      let total = Codegen.box_volume space in
      let range = Codegen.iter_range space in
      let pos = ref 0 and p = ref 0 in
      while !pos < total do
        let remaining = total - !pos in
        let c = min remaining (max 1 (chunk ~remaining)) in
        range !pos (!pos + c) (fun b ->
            out.(!p) <- [| Array.copy b |] :: out.(!p));
        pos := !pos + c;
        p := (!p + 1) mod nprocs
      done);
  Array.map (fun l -> Array.concat (List.rev l)) out

let check nest ~nprocs work =
  if nprocs < 1 then invalid_arg "Scheduling.check: nprocs < 1";
  let space = Nest.bounds nest in
  let check_box (b : box) =
    if Array.length b <> Array.length space then
      invalid_arg "Scheduling.check: box arity mismatch";
    Array.iteri
      (fun k (lo, hi) ->
        let slo, shi = space.(k) in
        if lo < slo || hi > shi then
          invalid_arg
            (Printf.sprintf
               "Scheduling.check: box bounds %d..%d on axis %d outside the \
                iteration space %d..%d"
               lo hi k slo shi))
      b
  in
  match work with
  | Tiled { tiles; owners; _ } ->
      if Array.length owners <> Array.length tiles then
        invalid_arg "Scheduling.check: tiled work with owners/tiles length \
                     mismatch";
      Array.iter
        (fun o ->
          if o < 0 || o >= nprocs then
            invalid_arg
              (Printf.sprintf "Scheduling.check: owner %d outside 0..%d" o
                 (nprocs - 1)))
        owners;
      Array.iter (Array.iter check_box) tiles
  | Dynamic { space; _ } -> check_box space

let volume boxes = Array.fold_left (fun n b -> n + Codegen.box_volume b) 0 boxes
let loads ~nprocs work = Array.map volume (per_proc ~nprocs work)

let total = function
  | Tiled { tiles; _ } -> Array.fold_left (fun n t -> n + volume t) 0 tiles
  | Dynamic { space; _ } -> Codegen.box_volume space

let of_schedule s = of_tiles (Codegen.tiles s)
