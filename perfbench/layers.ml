(* The traced run: the layers' public functions called in the order
   [Driver.analyze] and [Driver.execute] / [Driver.execute_resilient]
   call them, each wrapped in a benchmark-side span, with a
   [Runtime.Trace.t] passed into the timed pass for the barrier, tile
   and re-execution numbers.  Nothing inside [lib/] is instrumented. *)

open Partition
module Driver = Loopart.Driver
module Exec = Runtime.Exec
module Kernel = Runtime.Kernel
module Pool = Runtime.Pool
module Trace = Runtime.Trace
module Resilient = Runtime.Resilient

(* Every per-layer metric: name, unit, the end-to-end metric it should
   move, and what it is measured from.  A layer span carries the name of
   the metric its self time feeds. *)
let metrics =
  [
    ("partition.cost_s", "s", "setup_s", "Cost.of_nest");
    ("partition.rectangular_s", "s", "setup_s", "Rectangular.optimize");
    ("partition.skewed_s", "s", "setup_s", "Skewed.optimize (example3-pped only)");
    ("baselines.s", "s", "setup_s",
     "Ramanujam_sadayappan.analyze + Abraham_hudak.partition");
    ("codegen.schedule_s", "s", "setup_s", "Codegen.make");
    ("codegen.num_tiles_s", "s", "e2e_s", "Codegen.num_tiles");
    ("scheduling.of_schedule_s", "s", "e2e_s, peak_rss_mb", "Scheduling.of_schedule");
    ("scheduling.points", "count", "peak_rss_mb",
     "points materialised (of_schedule, or the resilient tiles)");
    ("scheduling.alloc_mb", "MB", "peak_rss_mb",
     "Gc bytes allocated by of_schedule + static_of_assignment \
      (tiles_of_schedule on stencil5-crash)");
    ("exec.static_work_s", "s", "e2e_s", "Exec.static_of_assignment");
    ("exec.compile_s", "s", "e2e_s", "Exec.compile");
    ("kernel.plan_s", "s", "e2e_s", "Kernel.plan");
    ("kernel.boxes_s", "s", "e2e_s", "Kernel.boxes_of_schedule");
    ("pool.spawn_s", "s", "e2e_s",
     "Pool.create + Pool.shutdown, once per execute or resilient attempt");
    ("exec.timed_pass_s", "s", "run_s", "Exec.time or Kernel.time wall");
    ("exec.ns_per_iter", "ns", "run_s", "timed pass wall / iterations");
    ("pool.barrier_s", "s", "run_s", "Trace busy barrier (domains and repeats summed)");
    ("pool.backoff_yields", "count", "run_s", "Trace backoff-yield counter");
    ("exec.tile_s", "s", "run_s", "Trace busy tile");
    ("exec.step_s", "s", "run_s", "Trace busy step (the compute sweeps)");
    ("measure.instrumented_pass_s", "s", "e2e_s", "Exec.measure");
    ("measure.footprint_predicted", "elements", "footprint_max",
     "Theorem 2/4 prediction per domain");
    ("measure.footprint_ratio", "ratio", "footprint_max", "measured / predicted");
    ("exec.reexecution_safe_s", "s", "e2e_s", "Exec.reexecution_safe");
    ("resilient.tiles_of_schedule_s", "s", "e2e_s, run_s",
     "Resilient.tiles_of_schedule");
    ("resilient.execute_s", "s", "run_s",
     "Resilient.execute self time (attempts, pools, plan, safety check)");
    ("resilient.attempts", "count", "run_s", "Report attempts");
    ("resilient.reexecuted_tiles", "count", "run_s", "Report tiles re-executed");
    ("resilient.reexec_s", "s", "run_s", "Trace busy reexec");
    ("driver.other_s", "s", "e2e_s", "time inside no mirrored layer span");
    ("trace.coverage", "ratio", "-",
     "mirrored layer spans / untraced e2e_s (the breakdown's health)");
    ("trace.overhead_s", "s", "-", "traced e2e - untraced e2e_s");
    ("trace.stale", "count", "-", "1 when coverage leaves [0.8, 1.25]");
  ]

type sample = {
  values : (string * float) list;
      (** every metric above except the [trace.*] ones, which compare
          samples with the untraced run *)
  mirrored_s : float;  (** time inside layer spans *)
  traced_e2e_s : float;
  verdict : (unit, string) result;
}

let busy (s : Trace.summary) kind =
  Option.value ~default:0.0 (List.assoc_opt kind s.Trace.busy_seconds)

(* [Driver.analyze], layer by layer. *)
let analyze sp (w : Workload.t) =
  Spans.span sp "analyze" (fun () ->
      let nest = w.nest and nprocs = Workload.nprocs in
      let cost = Spans.span sp "partition.cost_s" (fun () -> Cost.of_nest nest) in
      let rect =
        Spans.span sp "partition.rectangular_s" (fun () ->
            Rectangular.optimize cost ~nprocs)
      in
      let skewed =
        if w.try_skewed then
          Spans.span sp "partition.skewed_s" (fun () -> Skewed.optimize cost ~nprocs)
        else None
      in
      let rs, ah =
        Spans.span sp "baselines.s" (fun () ->
            ( Baselines.Ramanujam_sadayappan.analyze nest,
              Baselines.Abraham_hudak.partition nest ~nprocs ))
      in
      { Driver.nest; nprocs; cost; rect; skewed; rs; ah })

(* [Driver.execute] under the [Tiled] policy (both the kernel and the
   interpreter path), on its untraced work list. *)
let execute sp trace (w : Workload.t) reference a tile put =
  let config = w.config in
  let sched = Spans.span sp "codegen.schedule_s" (fun () -> Driver.schedule ~tile a) in
  let kernels =
    config.kernels
    && match sched.Codegen.tile with Tile.Rect _ -> true | Tile.Pped _ -> false
  in
  let per_tile = Cost.misses_per_tile a.Driver.cost sched.Codegen.tile in
  let ntiles = Spans.span sp "codegen.num_tiles_s" (fun () -> Codegen.num_tiles sched) in
  let predicted = per_tile * Intmath.Int_math.ceil_div ntiles a.Driver.nprocs in
  let compiled =
    Spans.span sp "exec.compile_s" (fun () ->
        Exec.compile ~bigarray:config.bigarray w.nest)
  in
  let kernel =
    if kernels then
      Some
        ( Spans.span sp "kernel.plan_s" (fun () -> Kernel.plan compiled),
          Spans.span sp "kernel.boxes_s" (fun () -> Kernel.boxes_of_schedule sched) )
    else None
  in
  let alloc0 = Gc.allocated_bytes () in
  let assignment =
    Spans.span sp "scheduling.of_schedule_s" (fun () -> Scheduling.of_schedule sched)
  in
  let work =
    Spans.span sp "exec.static_work_s" (fun () -> Exec.static_of_assignment assignment)
  in
  put "scheduling.alloc_mb" ((Gc.allocated_bytes () -. alloc0) /. 1048576.0);
  put "scheduling.points" (float_of_int (Scheduling.total assignment));
  let steps = Workload.steps w in
  let (wall, _, iterations), inst =
    Spans.span sp "pool.spawn_s" (fun () ->
        Pool.with_pool a.Driver.nprocs (fun pool ->
            let timed =
              Spans.span sp "exec.timed_pass_s" (fun () ->
                  match kernel with
                  | Some (plan, boxes) ->
                      Kernel.time ~trace pool plan ~boxes ~steps
                        ~repeats:config.repeats
                  | None ->
                      Exec.time ~trace pool compiled work ~steps
                        ~repeats:config.repeats)
            in
            let inst =
              Spans.span sp "measure.instrumented_pass_s" (fun () ->
                  Exec.measure pool compiled work ~steps ~mode:config.footprint)
            in
            (timed, inst)))
  in
  let iters = Array.fold_left ( + ) 0 iterations in
  put "exec.ns_per_iter" (wall *. 1e9 /. float_of_int (max 1 iters));
  let measured = Array.fold_left max 0 inst.Exec.footprints in
  put "measure.footprint_predicted" (float_of_int predicted);
  put "measure.footprint_ratio"
    (float_of_int measured /. float_of_int (max 1 predicted));
  (Workload.check_checksum reference inst.Exec.checksum, ignore)

(* [Driver.execute_resilient].  The calls it makes inside
   [Resilient.execute] (the safety check, [Kernel.plan], one pool per
   attempt) are timed by the returned probes, which the caller runs
   after the traced sample ends. *)
let execute_resilient sp trace (w : Workload.t) reference a tile put =
  let compiled =
    Spans.span sp "exec.compile_s" (fun () ->
        Exec.compile ~bigarray:w.config.bigarray w.nest)
  in
  let steps = Workload.steps w in
  let points = ref 0 and alloc = ref 0.0 in
  let partition ~nprocs =
    let tile =
      if nprocs = a.Driver.nprocs then tile
      else (Rectangular.optimize a.Driver.cost ~nprocs).Rectangular.tile
    in
    let sched =
      Spans.span sp "codegen.schedule_s" (fun () -> Codegen.make w.nest tile ~nprocs)
    in
    let alloc0 = Gc.allocated_bytes () in
    let p =
      Spans.span sp "resilient.tiles_of_schedule_s" (fun () ->
          Resilient.tiles_of_schedule sched)
    in
    alloc := !alloc +. (Gc.allocated_bytes () -. alloc0);
    points := !points + Array.fold_left (fun n t -> n + Array.length t) 0 p.tiles;
    p
  in
  let report, buffer =
    Spans.span sp "resilient.execute_s" (fun () ->
        Resilient.execute ?plan:(Workload.plan w) ~trace ~kernels:w.config.kernels
          ~compiled ~steps ~partition ~nprocs:a.Driver.nprocs ())
  in
  put "scheduling.points" (float_of_int !points);
  put "scheduling.alloc_mb" (!alloc /. 1048576.0);
  let attempts = List.length report.Runtime.Report.attempts in
  put "resilient.attempts" (float_of_int attempts);
  put "resilient.reexecuted_tiles"
    (float_of_int (Runtime.Report.reexecuted_tiles report));
  let probe name f =
    let t0 = Runtime.Mclock.now () in
    ignore (Sys.opaque_identity (f ()));
    put name (Runtime.Mclock.now () -. t0)
  in
  let probes () =
    probe "exec.reexecution_safe_s" (fun () -> Exec.reexecution_safe compiled);
    if w.config.kernels then probe "kernel.plan_s" (fun () -> Kernel.plan compiled);
    probe "pool.spawn_s" (fun () ->
        for _ = 1 to attempts do
          Pool.shutdown (Pool.create a.Driver.nprocs)
        done)
  in
  (Workload.check_resilient reference report buffer, probes)

let sample (w : Workload.t) reference =
  let sp = Spans.create () in
  let trace = Trace.create ~domains:Workload.nprocs () in
  let extra = Hashtbl.create 8 in
  let put k v = Hashtbl.replace extra k v in
  let verdict, probes =
    Spans.span sp "e2e" (fun () ->
        let a = analyze sp w in
        let tile = Driver.best_tile a in
        match w.path with
        | Workload.Execute -> execute sp trace w reference a tile put
        | Workload.Resilient _ -> execute_resilient sp trace w reference a tile put)
  in
  probes ();
  let self = Spans.self_times sp in
  let self_of n = Option.value ~default:0.0 (Hashtbl.find_opt self n) in
  let s = Trace.summary trace in
  put "pool.barrier_s" (busy s "barrier");
  put "pool.backoff_yields" (float_of_int s.Trace.backoff_yields);
  put "exec.tile_s" (busy s "tile");
  put "exec.step_s" (busy s "step");
  put "resilient.reexec_s" (busy s "reexec");
  put "driver.other_s" (self_of "e2e" +. self_of "analyze");
  let traced_e2e_s = Spans.duration sp "e2e" in
  let values =
    List.filter_map
      (fun (name, _, _, _) ->
        if String.starts_with ~prefix:"trace." name then None
        else
          (* A probe's value, else the span's self time, else the layer
             did not run. *)
          match Hashtbl.find_opt extra name with
          | Some v -> Some (name, v)
          | None -> Some (name, self_of name))
      metrics
  in
  {
    values;
    mirrored_s = traced_e2e_s -. self_of "e2e" -. self_of "analyze";
    traced_e2e_s;
    verdict;
  }
