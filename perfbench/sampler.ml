(* Sampling: the untraced user path ([Driver.analyze] then
   [Driver.execute] or [Driver.execute_resilient]), the set-up pairs,
   the traced layer breakdown, and the result lines. *)

module Driver = Loopart.Driver
module Exec = Runtime.Exec

let now = Runtime.Mclock.now

(* Every timed region starts from the same heap state. *)
let settle () = Gc.full_major ()

type e2e = {
  e2e_s : float;
  run_s : float;
  footprint_max : int option;  (** [None] on the resilient path *)
  verdict : (unit, string) result;
}

(* One run of the user path, from the nest to a checked result.  The
   check runs after the clock stops. *)
let e2e_sample (w : Workload.t) (reference : Workload.reference) =
  let plan = Workload.plan w in
  let t0 = now () in
  let a = Driver.analyze ~try_skewed:w.try_skewed ~nprocs:Workload.nprocs w.nest in
  let tile = Driver.best_tile a in
  match w.path with
  | Workload.Execute ->
      let r = Driver.execute ~config:w.config ~tile a in
      let e2e_s = now () -. t0 in
      {
        e2e_s;
        run_s = r.Runtime.Measure.wall_seconds;
        footprint_max = Some (Runtime.Measure.max_footprint r);
        verdict = Workload.check_checksum reference r.Runtime.Measure.checksum;
      }
  | Workload.Resilient _ ->
      let report, buffer = Driver.execute_resilient ~config:w.config ?plan ~tile a in
      let e2e_s = now () -. t0 in
      {
        e2e_s;
        run_s =
          List.fold_left
            (fun acc (at : Runtime.Report.attempt) -> acc +. at.wall_seconds)
            0.0 report.Runtime.Report.attempts;
        footprint_max = None;
        verdict = Workload.check_resilient reference report buffer;
      }

(* Compile time before any execution, [Driver.analyze] +
   [Driver.schedule], repeated back to back until the sample fills
   10 ms; seconds per pair. *)
let setup_sample (w : Workload.t) =
  let t0 = now () in
  let rec go k =
    let a = Driver.analyze ~try_skewed:w.try_skewed ~nprocs:Workload.nprocs w.nest in
    ignore (Sys.opaque_identity (Driver.schedule ~tile:(Driver.best_tile a) a));
    let elapsed = now () -. t0 in
    if elapsed >= 0.010 then elapsed /. float_of_int k else go (k + 1)
  in
  go 1

(* The resilient path has no footprint pass: count the busiest domain's
   footprint of the partition it executes (its owner map, before
   recovery moves the orphaned tile) with one instrumented step.  Every
   step touches the same elements, so one step gives the whole count. *)
let partition_footprint (w : Workload.t) =
  let a = Driver.analyze ~try_skewed:w.try_skewed ~nprocs:Workload.nprocs w.nest in
  let sched = Driver.schedule ~tile:(Driver.best_tile a) a in
  let compiled = Exec.compile ~bigarray:w.config.bigarray w.nest in
  let work = Exec.static_of_assignment (Partition.Scheduling.of_schedule sched) in
  let inst =
    Runtime.Pool.with_pool Workload.nprocs (fun pool ->
        Exec.measure pool compiled work ~steps:1 ~mode:w.config.footprint)
  in
  Array.fold_left max 0 inst.Exec.footprints

(* Peak resident memory of this process (VmHWM), in MB. *)
let peak_rss_mb () =
  let from_proc =
    try
      In_channel.with_open_text "/proc/self/status" (fun ic ->
          let rec scan () =
            match In_channel.input_line ic with
            | None -> None
            | Some l ->
                if String.starts_with ~prefix:"VmHWM:" l then
                  Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB"
                    (fun kb -> Some (float_of_int kb /. 1024.0))
                else scan ()
          in
          scan ())
    with Sys_error _ -> None
  in
  match from_proc with
  | Some mb -> mb
  | None ->
      float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
      /. 1048576.0

type tally = { mutable attempted : int; mutable failed : int }

let count tally (w : Workload.t) verdict =
  tally.attempted <- tally.attempted + 1;
  match verdict with
  | Ok () -> ()
  | Error msg ->
      tally.failed <- tally.failed + 1;
      Printf.eprintf "FAIL %s: sample %d: %s\n%!" w.name tally.attempted msg

(* Run [f] at least [min_rounds] times, then while another round of the
   last round's length still ends within [seconds]. *)
let rounds ~seconds ~min_rounds f =
  let deadline = now () +. seconds in
  let rec go i last =
    if i < min_rounds || now () +. last <= deadline then begin
      let t0 = now () in
      f ();
      go (i + 1) (now () -. t0)
    end
  in
  go 0 0.0

type metric = {
  name : string;
  unit_ : string;
  note : string;  (** what it moves and is measured from *)
  samples : float list;  (** as measured *)
  value : float;  (** what the result line reports *)
}

type outcome = {
  metrics : metric list;
  tally : tally;
  calib : float list;  (** calibration times, [--trace 0] only *)
}

(* The reference, a fresh tally, and one discarded warm-up sample that
   lets the heap grow to its working size before timing. *)
let prepare ?reference w =
  let reference = match reference with Some r -> r | None -> Workload.reference w in
  ignore (e2e_sample w reference);
  (reference, { attempted = 0; failed = 0 })

(* [--trace 0]: the end-to-end metrics.  A calibration follows every
   round; each timing is the trimmed mean of its samples, scaled by the
   calibrations' (see [Calib]). *)
let untraced ?reference ~seconds ~min_rounds (w : Workload.t) =
  let reference, tally = prepare ?reference w in
  let setup = ref [] and e2e = ref [] and calib = ref [] in
  rounds ~seconds ~min_rounds (fun () ->
      settle ();
      setup := setup_sample w :: !setup;
      settle ();
      let s = e2e_sample w reference in
      count tally w s.verdict;
      e2e := s :: !e2e;
      calib := Calib.time ~domains:w.calib_domains :: !calib);
  let footprint =
    match !e2e with
    | { footprint_max = Some f; _ } :: _ -> f
    | _ -> partition_footprint w
  in
  let factor = Calib.factor !calib in
  let timing name samples =
    { name; unit_ = "s"; note = "calibrated trimmed mean"; samples;
      value = factor *. Stats.trimmed_mean samples }
  in
  let exact name unit_ v = { name; unit_; note = ""; samples = [ v ]; value = v } in
  {
    metrics =
      [
        timing "e2e_s" (List.map (fun s -> s.e2e_s) !e2e);
        timing "setup_s" !setup;
        timing "run_s" (List.map (fun s -> s.run_s) !e2e);
        exact "peak_rss_mb" "MB" (peak_rss_mb ());
        exact "footprint_max" "elements" (float_of_int footprint);
      ];
    tally;
    calib = !calib;
  }

(* Coverage band outside which the mirrored layers no longer account
   for the untraced run: the breakdown is stale. *)
let coverage_band = (0.8, 1.25)

(* [--trace 1]: the per-layer metrics.  Untraced and traced samples
   alternate, so coverage and overhead compare like with like. *)
let traced ?reference ~seconds ~min_rounds (w : Workload.t) =
  let reference, tally = prepare ?reference w in
  let e2e = ref [] and layers = ref [] in
  rounds ~seconds ~min_rounds (fun () ->
      settle ();
      let s = e2e_sample w reference in
      count tally w s.verdict;
      e2e := s.e2e_s :: !e2e;
      settle ();
      let l = Layers.sample w reference in
      count tally w l.Layers.verdict;
      layers := l :: !layers);
  let untraced_e2e = Stats.median !e2e in
  let over f = List.map f !layers in
  let coverage = Stats.median (over (fun l -> l.Layers.mirrored_s)) /. untraced_e2e in
  let lo, hi = coverage_band in
  let stale = coverage < lo || coverage > hi in
  if stale then
    Printf.eprintf
      "STALE %s: the mirrored layers cover %.3f of the untraced e2e_s, \
       outside [%g, %g]; the traced run no longer follows Driver\n%!"
      w.name coverage lo hi;
  let metric (name, unit_, moves, source) =
    let samples =
      match name with
      | "trace.coverage" -> [ coverage ]
      | "trace.overhead_s" ->
          [ Stats.median (over (fun l -> l.Layers.traced_e2e_s)) -. untraced_e2e ]
      | "trace.stale" -> [ (if stale then 1.0 else 0.0) ]
      | _ -> over (fun l -> List.assoc name l.Layers.values)
    in
    { name; unit_; note = Printf.sprintf "moves %s; %s" moves source; samples;
      value = Stats.median samples }
  in
  { metrics = List.map metric Layers.metrics; tally; calib = [] }

(* {2 Output} *)

let json_float v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let json_string s = Printf.sprintf "%S" s

type context = {
  workload : Workload.t;
  seed : int;
  trace : bool;
  rev : string;
}

(* Human-readable lines, one bench record line, and, last, the result
   line: [correct], [attempted], [failed] and each metric's value. *)
let print ctx (o : outcome) =
  let n = o.tally.attempted in
  let fail_frac = float_of_int o.tally.failed /. float_of_int (max 1 n) in
  let cores = Domain.recommended_domain_count () in
  Printf.printf "# perfbench %s trace=%d P=%d host_cores=%d ocaml=%s rev=%s seed=%d samples=%d\n"
    ctx.workload.name (Bool.to_int ctx.trace) Workload.nprocs cores
    Sys.ocaml_version ctx.rev ctx.seed n;
  Printf.printf "# loads: %s\n# bypasses: %s\n" ctx.workload.loads
    ctx.workload.bypasses;
  if o.calib <> [] then
    Printf.printf "# calibration: trimmed mean %.6g s over %d, nominal %g s: timings x %.4f\n"
      (Stats.trimmed_mean o.calib) (List.length o.calib) Calib.nominal_s
      (Calib.factor o.calib);
  let rows = List.map (fun m -> (m, Stats.quartiles m.samples)) o.metrics in
  List.iter
    (fun (m, (q1, med, q3)) ->
      Printf.printf "  %-30s %14.6g %-8s (samples: median %.6g, q1 %.6g, q3 %.6g, n %d) %s\n"
        m.name m.value m.unit_ med q1 q3 (List.length m.samples) m.note)
    rows;
  Printf.printf "  %-30s %14.6g %-8s (%d of %d samples failed the check)\n"
    "fail_frac" fail_frac "ratio" o.tally.failed n;
  let fields f = String.concat ", " (List.map f rows) in
  let samples xs = "[" ^ String.concat ", " (List.rev_map json_float xs) ^ "]" in
  Printf.printf
    "{\"record\": {\"workload\": %s, \"trace\": %d, \"nprocs\": %d, \
     \"host_cores\": %d, \"ocaml\": %s, \"git_rev\": %s, \"seed\": %d, \
     \"samples\": %d, \"fail_frac\": %s, \"calib_s\": %s, \"metrics\": {%s}}}\n"
    (json_string ctx.workload.name) (Bool.to_int ctx.trace) Workload.nprocs cores
    (json_string Sys.ocaml_version) (json_string ctx.rev) ctx.seed n
    (json_float fail_frac) (samples o.calib)
    (fields (fun (m, (q1, med, q3)) ->
         Printf.sprintf
           "%s: {\"value\": %s, \"median\": %s, \"q1\": %s, \"q3\": %s, \"n\": %d, \
            \"unit\": %s, \"samples\": %s}"
           (json_string m.name) (json_float m.value) (json_float med) (json_float q1)
           (json_float q3) (List.length m.samples) (json_string m.unit_)
           (samples m.samples)));
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (o.tally.failed = 0 && n > 0) n o.tally.failed
    (fields (fun (m, _) ->
         Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string m.name)
           (json_float m.value) (json_string m.unit_)))
