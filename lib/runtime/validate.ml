open Intmath
open Loopir
open Partition
open Machine

type verdict = {
  nest_name : string;
  nprocs : int;
  policy : string;
  sim_footprints : int array;
  measured_footprints : int array;
  footprints_agree : bool;
  predicted_per_tile : int option;
  measured_max : int;
  write_races : (string * int) list;
  shared_accumulates : (string * int) list;
  reduction_arrays : string list;
  race_free : bool;
  deterministic : bool;
  values_match : bool option;
}

type conflicts = {
  races : (string * int) list;
  contended : (string * int) list;
  crossing : int;
}

(* An array's addresses are contiguous and [sharing] lists addresses in
   ascending order, so counting runs of one name counts per array. *)
let classify layout (s : Measure.sharing) =
  let per_array addresses =
    List.fold_left
      (fun counts a ->
        let name, _ = Layout.element_of layout a in
        match counts with
        | (n, k) :: rest when n = name -> (n, k + 1) :: rest
        | l -> (name, 1) :: l)
      [] addresses
    |> List.sort compare
  in
  {
    races = per_array s.races;
    contended = per_array s.contended;
    crossing = s.crossing;
  }

let reduction_arrays (cost : Cost.t) =
  List.filter_map
    (fun (c : Cost.class_cost) ->
      if c.Cost.writes && c.Cost.null_dims <> [] then
        Some c.Cost.cls.Footprint.Uniform.array_name
      else None)
    cost.Cost.classes
  |> List.sort_uniq compare

let check_schedule (schedule : Codegen.schedule) ~steps ~operands =
  let nest = schedule.Codegen.nest in
  let nprocs = schedule.Codegen.nprocs in
  let work = Scheduling.of_tiles (Codegen.tiles schedule) in
  let compiled = Exec.compile nest in
  let cost = Cost.of_nest nest in
  (* Footprints are per-Doall quantities: one outer step on both sides
     keeps the comparison exact and cheap (re-execution touches no new
     elements). *)
  let sim =
    Sim.run_work nest ~nprocs work { Sim.default with Sim.seq_steps = Some 1 }
  in
  let sim_footprints = Sim.footprints sim in
  (* Each owner's boxes through the kernel's cursors, on this domain:
     the rows of one step of the tiled run, with no operands. *)
  let observe = Kernel.observe (Kernel.plan compiled) in
  let universe = Exec.total_elements compiled in
  let rows () = Array.init nprocs (fun _ -> Bitset.create ~universe) in
  let reads = rows () and writes = rows () and accumulates = rows () in
  Array.iteri
    (fun p boxes ->
      Array.iter
        (observe ~reads:reads.(p) ~writes:writes.(p)
           ~accumulates:accumulates.(p))
        boxes)
    (Scheduling.per_proc ~nprocs work);
  let s = Measure.sharing ~reads ~writes ~accumulates in
  let k = classify (Layout.of_nest nest) s in
  let deterministic = k.crossing = 0 in
  let measured_footprints = s.Measure.footprints in
  {
    nest_name = nest.Nest.name;
    nprocs;
    policy = "tiled";
    sim_footprints;
    measured_footprints;
    footprints_agree = measured_footprints = sim_footprints;
    predicted_per_tile = Some (Cost.misses_per_tile cost schedule.Codegen.tile);
    measured_max = Array.fold_left max 0 measured_footprints;
    write_races = k.races;
    shared_accumulates = k.contended;
    reduction_arrays = reduction_arrays cost;
    race_free = k.races = [];
    deterministic;
    values_match =
      (if deterministic then
         Some (Exec.same_bits operands (Exec.sequential compiled ~steps))
       else None);
  }

let ok v =
  v.race_free && v.footprints_agree
  && match v.values_match with Some false -> false | Some true | None -> true

let pp ppf v =
  Format.fprintf ppf "@[<v>validation of %s (%s, %d procs):@," v.nest_name
    v.policy v.nprocs;
  Format.fprintf ppf "  runtime footprints = simulator footprints: %b@,"
    v.footprints_agree;
  (match v.predicted_per_tile with
  | Some predicted ->
      Format.fprintf ppf "  model predicted %d per tile; measured max %d@,"
        predicted v.measured_max
  | None -> Format.fprintf ppf "  measured max footprint %d@," v.measured_max);
  let per_array counts =
    String.concat ""
      (List.map (fun (a, n) -> Printf.sprintf " %s(%d elements)" a n) counts)
  in
  (match v.write_races with
  | [] -> Format.fprintf ppf "  write races: none@,"
  | races -> Format.fprintf ppf "  WRITE RACES:%s@," (per_array races));
  (match v.shared_accumulates with
  | [] -> ()
  | shared ->
      Format.fprintf ppf "  contended atomic accumulates:%s%s@,"
        (per_array shared)
        (match v.reduction_arrays with
        | [] -> ""
        | rs -> " - predicted by cost classes " ^ String.concat "," rs));
  Format.fprintf ppf "  %s@,"
    (match v.values_match with
    | Some b -> Printf.sprintf "deterministic: values match sequential: %b" b
    | None when not v.race_free -> "value check skipped: write races"
    | None -> "nondeterministic order (by design): value check skipped");
  Format.fprintf ppf "  verdict: %s@]" (if ok v then "OK" else "FAILED")
