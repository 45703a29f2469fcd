open Loopir
open Partition
open Machine

type analysis = {
  nest : Nest.t;
  nprocs : int;
  cost : Cost.t;
  rect : Rectangular.result;
  skewed : Skewed.result option;
  rs : Baselines.Ramanujam_sadayappan.t;
  ah : (Baselines.Abraham_hudak.result, string) result;
}

let analyze ?(try_skewed = false) ~nprocs nest =
  let cost = Cost.of_nest nest in
  let rect = Rectangular.optimize cost ~nprocs in
  let skewed = if try_skewed then Skewed.optimize cost ~nprocs else None in
  let rs = Baselines.Ramanujam_sadayappan.analyze nest in
  let ah = Baselines.Abraham_hudak.partition nest ~nprocs in
  { nest; nprocs; cost; rect; skewed; rs; ah }

let best_tile a =
  match a.skewed with
  | Some s when s.Skewed.improves_on_rect -> s.Skewed.tile
  | Some _ | None -> a.rect.Rectangular.tile

let schedule ?tile a =
  let tile = Option.value ~default:a.rect.Rectangular.tile tile in
  Codegen.make a.nest tile ~nprocs:a.nprocs

let simulate ?tile ?(config = Sim.default) a =
  Sim.run (schedule ?tile a) config

type exec_policy =
  | Tiled
  | Cyclic
  | Block_cyclic of int
  | Guided
  | Work_steal of int

type exec_config = {
  policy : exec_policy;
  repeats : int;
  steps : int option;
  footprint : Runtime.Measure.mode;
  bigarray : bool;
  kernels : bool;
  trace : Runtime.Trace.t option;
}

let default_exec_config =
  {
    policy = Tiled;
    repeats = 3;
    steps = None;
    footprint = Runtime.Measure.Exact;
    bigarray = false;
    kernels = false;
    trace = None;
  }

let policy_name = function
  | Tiled -> "compile-time tiles"
  | Cyclic -> "cyclic self-scheduling"
  | Block_cyclic c -> Printf.sprintf "block-cyclic self-scheduling (chunk %d)" c
  | Guided -> "guided self-scheduling"
  | Work_steal c -> Printf.sprintf "tiled + work stealing (chunk %d)" c

let work ?tile a policy =
  let tiles () = Codegen.tiles (schedule ?tile a) in
  let dynamic chunk =
    Scheduling.Dynamic { space = Nest.bounds a.nest; chunk }
  in
  match policy with
  | Tiled -> Scheduling.of_tiles (tiles ())
  | Work_steal chunk -> Scheduling.pieces ~chunk (tiles ())
  | Cyclic -> dynamic (fun ~remaining:_ -> 1)
  | Block_cyclic chunk ->
      if chunk < 1 then invalid_arg "Driver.work: chunk < 1";
      dynamic (fun ~remaining:_ -> chunk)
  | Guided ->
      dynamic (fun ~remaining -> Intmath.Int_math.ceil_div remaining a.nprocs)

let execute ?(config = default_exec_config) ?tile a =
  let nest = a.nest in
  let work = work ?tile a config.policy in
  let predicted =
    match (config.policy, work) with
    | Tiled, Scheduling.Tiled { tiles; _ } ->
        let tile = (schedule ?tile a).Codegen.tile in
        Some
          (Cost.misses_per_tile a.cost tile
          * Intmath.Int_math.ceil_div (Array.length tiles) a.nprocs)
    | _ -> None
  in
  let compiled = Runtime.Exec.compile nest in
  let steps = Nest.steps ?override:config.steps nest in
  (* The timed pass runs every step through the kernel and gives the
     checksum; the footprints come from the kernel's cursors observing
     the same work, with no operands, for one step when the work is
     static ([Exec.observed_steps]). *)
  let plan = Runtime.Kernel.plan compiled in
  let raw =
    Runtime.Pool.with_pool a.nprocs (fun pool ->
        Runtime.Exec.run
          ~trace:(Option.value ~default:Runtime.Trace.disabled config.trace)
          ~box:(Runtime.Kernel.run_box plan)
          ~observe:(Runtime.Kernel.observe plan) pool compiled work ~steps
          ~repeats:config.repeats)
  in
  let policy =
    Printf.sprintf "%s + %s kernel" (policy_name config.policy)
      (Runtime.Kernel.shape plan)
  in
  Runtime.Measure.report ~name:nest.Nest.name ~policy ~steps
    ~repeats:config.repeats
    ~total_elements:(Runtime.Exec.total_elements compiled)
    ?predicted_per_domain:predicted raw

let execute_resilient ?(config = default_exec_config)
    ?(resilience = Runtime.Resilient.default_config) ?plan ?tile a =
  let nest = a.nest in
  let compiled = Runtime.Exec.compile nest in
  let steps = Nest.steps ?override:config.steps nest in
  let chosen = Option.value ~default:(best_tile a) tile in
  let partition ~nprocs =
    let tile =
      if nprocs = a.nprocs then chosen
      else
        (* Degraded pool: re-optimize the partition for the smaller
           machine instead of squeezing the old tile onto it. *)
        (Rectangular.optimize a.cost ~nprocs).Rectangular.tile
    in
    Scheduling.tiled ~steal:true
      (Codegen.tiles (Codegen.make nest tile ~nprocs))
  in
  Runtime.Resilient.execute ~config:resilience ?plan ?trace:config.trace
    ~compiled ~steps ~partition ~nprocs:a.nprocs ()

let validate ?tile a ~steps ~operands =
  Runtime.Validate.check_schedule (schedule ?tile a) ~steps ~operands

let simulate_aligned ?tile ?(geometry = Cache.Infinite) a =
  let sched = schedule ?tile a in
  let placement = Data_partition.aligned sched a.cost in
  Sim.run sched
    {
      Sim.default with
      Sim.geometry;
      topology = Sim.Mesh2d;
      placement = Some placement;
    }

let report ppf a =
  Format.fprintf ppf "@[<v>=== %s on %d processors ===@,@,%a@,@,"
    a.nest.Nest.name a.nprocs Nest.pp a.nest;
  Format.fprintf ppf "%a@,@," Cost.pp a.cost;
  Format.fprintf ppf "--- rectangular partition ---@,%a@,@,"
    Rectangular.pp_result a.rect;
  (match a.skewed with
  | Some s ->
      Format.fprintf ppf "--- parallelepiped partition ---@,%a@,@,"
        Skewed.pp_result s
  | None -> ());
  Format.fprintf ppf "--- Ramanujam-Sadayappan check ---@,%a@,@,"
    Baselines.Ramanujam_sadayappan.pp a.rs;
  (match a.ah with
  | Ok r ->
      Format.fprintf ppf "--- Abraham-Hudak baseline ---@,%a@,"
        Baselines.Abraham_hudak.pp_result r
  | Error e ->
      Format.fprintf ppf "--- Abraham-Hudak baseline: not applicable (%s)@,"
        e);
  Format.fprintf ppf "@]"
