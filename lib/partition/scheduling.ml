open Loopir

type assignment = Codegen.box array array

let of_schedule = Codegen.iterations_by_proc

let dealt nest ~nprocs ~chunk_of =
  (* Deal consecutive chunks of the lexicographic order to processors
     round-robin; [chunk_of remaining] gives the next chunk size. *)
  if nprocs < 1 then invalid_arg "Scheduling: nprocs < 1";
  let space = Nest.bounds nest in
  let total = Codegen.box_volume space and range = Codegen.iter_range space in
  let out = Array.make nprocs [] in
  let pos = ref 0 and p = ref 0 in
  while !pos < total do
    let c = max 1 (chunk_of (total - !pos)) in
    let c = min c (total - !pos) in
    range !pos (!pos + c) (fun b -> out.(!p) <- Array.copy b :: out.(!p));
    pos := !pos + c;
    p := (!p + 1) mod nprocs
  done;
  Array.map (fun l -> Array.of_list (List.rev l)) out

let cyclic nest ~nprocs = dealt nest ~nprocs ~chunk_of:(fun _ -> 1)

let block_cyclic nest ~nprocs ~chunk =
  if chunk < 1 then invalid_arg "Scheduling.block_cyclic: chunk < 1";
  dealt nest ~nprocs ~chunk_of:(fun _ -> chunk)

let guided_self_scheduling nest ~nprocs =
  dealt nest ~nprocs ~chunk_of:(fun remaining ->
      Intmath.Int_math.ceil_div remaining nprocs)

let loads a =
  Array.map
    (Array.fold_left (fun acc b -> acc + Codegen.box_volume b) 0)
    a

let total a = Array.fold_left ( + ) 0 (loads a)
let max_load a = Array.fold_left max 0 (loads a)
