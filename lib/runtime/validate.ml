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

type elem_state = {
  array_name : string;
  mutable writer : int;  (** first writing processor *)
  mutable multi : bool;  (** written by more than one processor *)
  mutable plain : bool;  (** some write was a plain [Write] *)
}

(* One Doall pass over the assignment, classifying every element reached
   through a write-like reference. *)
let scan_writes compiled nest (assignment : Scheduling.assignment) =
  let written : (int, elem_state) Hashtbl.t = Hashtbl.create 4096 in
  List.iter
    (fun (r : Reference.t) ->
      if Reference.is_write_like r then begin
        let addr = Exec.address compiled r in
        let plain = r.Reference.kind <> Reference.Accumulate in
        Array.iteri
          (fun p boxes ->
            Codegen.iter_boxes boxes (fun point ->
                let a = addr point in
                match Hashtbl.find_opt written a with
                | None ->
                    Hashtbl.add written a
                      {
                        array_name = r.Reference.array_name;
                        writer = p;
                        multi = false;
                        plain;
                      }
                | Some e ->
                    e.plain <- e.plain || plain;
                    if e.writer <> p then e.multi <- true))
          assignment
      end)
    nest.Nest.body;
  written

let cross_read_after_write compiled nest written
    (assignment : Scheduling.assignment) =
  List.exists
    (fun (r : Reference.t) ->
      (not (Reference.is_write_like r))
      &&
      let addr = Exec.address compiled r in
      let racy = ref false in
      Array.iteri
        (fun p boxes ->
          if not !racy then
            Codegen.iter_boxes boxes (fun point ->
                match Hashtbl.find_opt written (addr point) with
                | Some e when e.multi || e.writer <> p -> racy := true
                | Some _ | None -> ()))
        assignment;
      !racy)
    nest.Nest.body

let bump tbl name =
  Hashtbl.replace tbl name (1 + Option.value ~default:0 (Hashtbl.find_opt tbl name))

let per_array_counts written =
  let races = Hashtbl.create 7 and shared = Hashtbl.create 7 in
  Hashtbl.iter
    (fun _ e ->
      if e.multi then
        if e.plain then bump races e.array_name else bump shared e.array_name)
    written;
  let to_list tbl =
    List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])
  in
  (to_list races, to_list shared)

let reduction_arrays (cost : Cost.t) =
  List.filter_map
    (fun (c : Cost.class_cost) ->
      if c.Cost.writes && c.Cost.null_dims <> [] then
        Some c.Cost.cls.Footprint.Uniform.array_name
      else None)
    cost.Cost.classes
  |> List.sort_uniq compare

let buffers_equal a b =
  Array.length a = Array.length b
  && (try
        Array.iteri
          (fun i x -> if x <> b.(i) then raise Exit)
          a;
        true
      with Exit -> false)

let check_schedule (schedule : Codegen.schedule) =
  let nest = schedule.Codegen.nest in
  let assignment = Scheduling.of_schedule schedule in
  let nprocs = Array.length assignment in
  let compiled = Exec.compile nest in
  let cost = Cost.of_nest nest in
  let written = scan_writes compiled nest assignment in
  let write_races, shared_accumulates = per_array_counts written in
  let race_free = write_races = [] in
  let deterministic =
    race_free
    && shared_accumulates = []
    && not (cross_read_after_write compiled nest written assignment)
  in
  (* Footprints are per-Doall quantities: one outer step on both sides
     keeps the comparison exact and cheap (re-execution touches no new
     elements). *)
  let sim =
    Sim.run_assignment nest ~per_proc:assignment
      { Sim.default with Sim.seq_steps = Some 1 }
  in
  let sim_footprints = Sim.footprints sim in
  Pool.with_pool nprocs (fun pool ->
      let inst =
        Exec.measure pool compiled
          (Exec.static_of_assignment assignment)
          ~steps:1 ~mode:Measure.Auto
      in
      let measured_footprints = inst.Exec.footprints in
      let footprints_agree =
        if inst.Exec.exact then measured_footprints = sim_footprints
        else
          Array.for_all2
            (fun a b ->
              let a = float_of_int a and b = float_of_int b in
              Float.abs (a -. b) <= 0.02 *. Float.max 1.0 b)
            measured_footprints sim_footprints
      in
      let values_match =
        if deterministic then
          Some (buffers_equal inst.Exec.buffer (Exec.sequential compiled ~steps:1))
        else None
      in
      {
        nest_name = nest.Nest.name;
        nprocs;
        policy = "tiled";
        sim_footprints;
        measured_footprints;
        footprints_agree;
        predicted_per_tile =
          Some (Cost.misses_per_tile cost schedule.Codegen.tile);
        measured_max = Array.fold_left max 0 measured_footprints;
        write_races;
        shared_accumulates;
        reduction_arrays = reduction_arrays cost;
        race_free;
        deterministic;
        values_match;
      })

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
  (match v.write_races with
  | [] -> Format.fprintf ppf "  write races: none@,"
  | races ->
      Format.fprintf ppf "  WRITE RACES:%s@,"
        (String.concat ""
           (List.map
              (fun (a, n) -> Printf.sprintf " %s(%d elements)" a n)
              races)));
  (match v.shared_accumulates with
  | [] -> ()
  | shared ->
      Format.fprintf ppf "  contended atomic accumulates:%s%s@,"
        (String.concat ""
           (List.map
              (fun (a, n) -> Printf.sprintf " %s(%d elements)" a n)
              shared))
        (match v.reduction_arrays with
        | [] -> ""
        | rs -> " - predicted by cost classes " ^ String.concat "," rs));
  (match v.values_match with
  | Some b -> Format.fprintf ppf "  deterministic: values match sequential: %b@," b
  | None -> Format.fprintf ppf "  nondeterministic order (by design): value check skipped@,");
  Format.fprintf ppf "  verdict: %s@]" (if ok v then "OK" else "FAILED")
