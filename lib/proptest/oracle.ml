open Matrixkit
open Loopir
open Footprint
open Partition
open Machine
open Runtime

type fault = No_fault | Spread_off_by_one | Drop_iteration

let fault_to_string = function
  | No_fault -> "none"
  | Spread_off_by_one -> "spread-off-by-one"
  | Drop_iteration -> "drop-iteration"

let fault_of_string = function
  | "none" -> Some No_fault
  | "spread-off-by-one" -> Some Spread_off_by_one
  | "drop-iteration" -> Some Drop_iteration
  | _ -> None

let all_faults = [ No_fault; Spread_off_by_one; Drop_iteration ]

type violation = { oracle : string; detail : string }

let pp_violation ppf v = Format.fprintf ppf "[%s] %s" v.oracle v.detail
let fail oracle fmt = Format.kasprintf (fun detail -> Some { oracle; detail }) fmt

module Pools = struct
  type t = (int, Pool.t) Hashtbl.t

  let create () = Hashtbl.create 4

  let get t n =
    match Hashtbl.find_opt t n with
    | Some p -> p
    | None ->
        let p = Pool.create n in
        Hashtbl.add t n p;
        p

  let shutdown t =
    Hashtbl.iter (fun _ p -> Pool.shutdown p) t;
    Hashtbl.reset t
end

(* ------------------------------------------------------------------ *)
(* Small helpers                                                       *)
(* ------------------------------------------------------------------ *)

let ivec_str v = Ivec.to_string v

let tile_str t =
  String.concat " " (String.split_on_char '\n' (Tile.to_string t))

let space_points nest =
  (* All iteration-space points, lexicographic. *)
  let out = ref [] in
  Codegen.iter_box (Nest.bounds nest) (fun p -> out := Array.copy p :: !out);
  List.rev !out

let select_components v idx = Array.of_list (List.map (fun k -> v.(k)) idx)

let first_some checks =
  List.fold_left
    (fun acc check -> match acc with Some _ -> acc | None -> check ())
    None checks

(* Value comparison against the sequential reference is only meaningful
   when the nest is order-insensitive: idempotent tiles (no read of a
   written address, no accumulates) and no two iterations writing the
   same element.  Work stealing and orphan re-execution reorder tiles,
   so a conflicting pair would differ from lexicographic order even
   without faults. *)
let writes_conflict_free (c : Gen.case) =
  let seen = Hashtbl.create 256 in
  let ok = ref true in
  List.iter
    (fun pt ->
      List.iter
        (fun (r : Reference.t) ->
          if Reference.is_write_like r then begin
            let key =
              (r.Reference.array_name,
               Array.to_list (Affine.apply r.Reference.index pt))
            in
            if Hashtbl.mem seen key then ok := false
            else Hashtbl.add seen key ()
          end)
        c.nest.Nest.body)
    (space_points c.nest);
  !ok

(* ------------------------------------------------------------------ *)
(* Oracle 1a: closed-form single-reference footprint vs enumeration    *)
(* ------------------------------------------------------------------ *)

let check_single (c : Gen.case) =
  let lambda = Array.map (fun t -> t - 1) c.tile in
  let iterations = Exact.rect_tile_iterations ~lambda in
  first_some
    (List.map
       (fun (r : Reference.t) () ->
         let g = Affine.g r.index in
         let closed = Size.rect_single ~lambda ~g in
         let brute = Exact.footprint_size ~iterations r.index in
         if closed <> brute then
           fail "footprint-single"
             "ref %s[G=%s]: Size.rect_single=%d but enumeration=%d for tile %s"
             r.array_name (Imat.to_string g) closed brute
             (ivec_str c.tile)
         else None)
       c.nest.Nest.body)

(* ------------------------------------------------------------------ *)
(* Oracle 1b: cumulative class footprint (Lemma 3 + Theorem 4 engines) *)
(* ------------------------------------------------------------------ *)

let check_cumulative ~fault (c : Gen.case) =
  let lambda = Array.map (fun t -> t - 1) c.tile in
  let iterations = Exact.rect_tile_iterations ~lambda in
  let perturb_first v =
    match fault with
    | Spread_off_by_one when Array.length v > 0 ->
        let v' = Array.copy v in
        v'.(0) <- v'.(0) + 1;
        v'
    | _ -> v
  in
  let check_class (cls : Uniform.cls) () =
    match (cls.refs, cls.offsets) with
    | r1 :: r2 :: _, o1 :: o2 :: _ when Imat.rank cls.g > 0 ->
        let spread = Uniform.spread cls in
        let red = Size.reduce ~g:cls.g ~spread in
        let brute =
          Exact.cumulative_footprint_size ~iterations
            [ r1.Reference.index; r2.Reference.index ]
        in
        let lemma3_check () =
          if not red.Size.full_row_rank then None
          else begin
            let diff = perturb_first (Ivec.sub o2 o1) in
            let diff_red = select_components diff red.Size.kept_cols in
            let lambda_red = select_components lambda red.Size.kept_rows in
            let lat = Lattice.make red.Size.g_reduced lambda_red in
            let lemma3 = Lattice.union_size_translate lat diff_red in
            if lemma3 <> brute then
              fail "footprint-cumulative"
                "class %s[G=%s] offsets %s,%s: Lemma 3 union=%d but \
                 enumeration=%d for tile %s"
                cls.array_name (Imat.to_string cls.g) (ivec_str o1)
                (ivec_str o2) lemma3 brute (ivec_str c.tile)
            else None
          end
        in
        let engine_check () =
          (* The public engine takes the Definition 8 spread, which only
             equals the true translation when the offset difference does
             not mix signs (see Size.lattice_spread).  Only two-member
             classes have spread = |diff|.  Checked for rank-deficient
             reduced G as well: exact:true must enumerate there. *)
          if
            List.length cls.refs = 2
            && (Array.for_all (fun d -> d >= 0) (Ivec.sub o2 o1)
               || Array.for_all (fun d -> d <= 0) (Ivec.sub o2 o1))
          then begin
            let api =
              Size.rect_cumulative ~exact:true ~lambda ~g:cls.g
                ~spread:(perturb_first spread)
            in
            if api <> brute then
              fail "footprint-cumulative"
                "class %s[G=%s] spread %s: Size.rect_cumulative=%d but \
                 enumeration=%d for tile %s"
                cls.array_name (Imat.to_string cls.g) (ivec_str spread) api
                brute (ivec_str c.tile)
            else None
          end
          else None
        in
        first_some [ lemma3_check; engine_check ]
    | _ -> None
  in
  first_some (List.map check_class (Uniform.classify_nest c.nest))

(* ------------------------------------------------------------------ *)
(* Oracle 2: owner schedules cover the space exactly once              *)
(* ------------------------------------------------------------------ *)

let check_coverage (c : Gen.case) sched per_proc =
  let total = Scheduling.total per_proc in
  if total <> Nest.iterations c.nest then
    fail "owner-cover" "schedules hold %d iterations, space has %d" total
      (Nest.iterations c.nest)
  else begin
    let seen = Hashtbl.create (max 16 total) in
    let owner = Codegen.owner sched in
    let dup = ref None in
    let misowned = ref None in
    Array.iteri
      (fun p boxes ->
        Codegen.iter_boxes boxes (fun pt ->
            let key = Array.to_list pt in
            if Hashtbl.mem seen key && !dup = None then
              dup := Some (Array.copy pt);
            Hashtbl.replace seen key ();
            let o = owner pt in
            if o <> p && !misowned = None then
              misowned := Some (Array.copy pt, p, o)))
      per_proc;
    match (!dup, !misowned) with
    | Some pt, _ ->
        fail "owner-cover" "iteration %s scheduled twice" (ivec_str pt)
    | _, Some (pt, p, o) ->
        fail "owner-cover" "iteration %s in proc %d's schedule but owner=%d"
          (ivec_str pt) p o
    | None, None ->
        (* total and uniqueness imply full cover; still check owner range
           over the whole space. *)
        first_some
          (List.map
             (fun pt () ->
               let o = owner pt in
               if o < 0 || o >= c.nprocs then
                 fail "owner-cover" "owner %s = %d outside 0..%d" (ivec_str pt)
                   o (c.nprocs - 1)
               else None)
             (space_points c.nest))
  end

(* ------------------------------------------------------------------ *)
(* Oracle 3: runtime domains, simulator and brute force agree          *)
(* ------------------------------------------------------------------ *)

let brute_footprints (c : Gen.case) per_proc =
  let per =
    Array.map
      (fun boxes ->
        let h = Hashtbl.create 64 in
        Codegen.iter_boxes boxes (fun pt ->
            List.iter
              (fun (r : Reference.t) ->
                Hashtbl.replace h
                  (r.array_name, Array.to_list (Affine.apply r.index pt))
                  ())
              c.nest.Nest.body);
        h)
      per_proc
  in
  let union = Hashtbl.create 256 in
  Array.iter (fun h -> Hashtbl.iter (fun k () -> Hashtbl.replace union k ()) h) per;
  (Array.map Hashtbl.length per, Hashtbl.length union)

(* The case's tile sheared: [c.tile] on the diagonal and 1 on the
   sub-diagonal, so [det L > 0] and the tiles are parallelepipeds. *)
let sheared (c : Gen.case) =
  let d = Array.length c.tile in
  Tile.pped
    (Imat.make d d (fun i j ->
         if i = j then c.tile.(i) else if i = j + 1 then 1 else 0))

(* The schedule's tiles run as boxes, the way [Driver.execute] runs
   them: [Kernel.run_box] in the timed pass and [Kernel.observe] in the
   observing one.  Each domain must touch the elements of its assignment
   as many times, and the observer must count what the interpreter's
   all-steps [Exec.measure] counts.  Over more than one step,
   [Exec.run] observes one step of this static work and takes its
   checksum from the timed pass: it must still report the footprints of
   every step and, on order-insensitive nests, the sequential checksum.
   The same tiles cut into stolen pieces must be observed for every step
   (stealing moves pieces between domains, so per-domain footprints
   vary from run to run and only the rule and the run's totals can be
   checked). *)
let check_tiles pool compiled ~steps ~order_free (c : Gen.case) sched per_proc
    =
  let tiles = Codegen.tiles sched in
  let work = Exec.of_tiles tiles in
  let tiled = Exec.measure pool compiled work ~steps in
  let brute, _ = brute_footprints c per_proc in
  let want = Array.map (fun n -> steps * n) (Scheduling.loads per_proc) in
  let plan = Kernel.plan compiled in
  let run work =
    Exec.run ~trace:Trace.disabled ~box:(Kernel.run_box plan)
      ~observe:(Kernel.observe plan) pool compiled work ~steps ~repeats:1
  in
  let sequential = lazy (Exec.checksum (Exec.sequential compiled ~steps)) in
  let check_checksum what (r : Measure.raw) =
    if
      Lazy.force order_free
      && not (Float.equal r.Measure.checksum (Lazy.force sequential))
    then
      fail "runtime-sim-agree" "%s of %s, %d steps: checksum %h, sequential %h"
        what
        (tile_str sched.Codegen.tile)
        steps r.Measure.checksum (Lazy.force sequential)
    else None
  in
  if tiled.Exec.footprints <> brute || tiled.Exec.iterations <> want then
    fail "runtime-sim-agree"
      "tiles of %s: footprints %s iterations %s; assignment: footprints %s \
       iterations %s"
      (tile_str sched.Codegen.tile)
      (ivec_str tiled.Exec.footprints)
      (ivec_str tiled.Exec.iterations)
      (ivec_str brute) (ivec_str want)
  else
    let static = run work and stolen = Exec.pieces ~chunk:2 tiles in
    first_some
      [
        (fun () ->
          if
            static.Measure.footprints <> tiled.Exec.footprints
            || static.Measure.distinct_total <> tiled.Exec.distinct_total
            || static.Measure.iterations <> want
          then
            fail "runtime-sim-agree"
              "tiles of %s, %d steps: Exec.run footprints %s distinct %d \
               iterations %s; measured over every step: footprints %s \
               distinct %d iterations %s"
              (tile_str sched.Codegen.tile)
              steps
              (ivec_str static.Measure.footprints)
              static.Measure.distinct_total
              (ivec_str static.Measure.iterations)
              (ivec_str tiled.Exec.footprints)
              tiled.Exec.distinct_total (ivec_str want)
          else None);
        (fun () -> check_checksum "tiles" static);
        (fun () ->
          let observed = Exec.observed_steps stolen ~steps in
          if observed <> steps then
            fail "runtime-sim-agree" "stolen pieces observed for %d of %d steps"
              observed steps
          else None);
        (fun () ->
          let r = run stolen in
          if r.Measure.distinct_total <> tiled.Exec.distinct_total then
            fail "runtime-sim-agree"
              "stolen pieces of %s, %d steps: distinct %d, want %d"
              (tile_str sched.Codegen.tile)
              steps r.Measure.distinct_total tiled.Exec.distinct_total
          else check_checksum "stolen pieces" r);
      ]

let check_runtime ~pools (c : Gen.case) sched sim per_proc =
  let compiled = Exec.compile c.nest in
  let steps = Exec.steps_of_nest c.nest in
  let pool = Pools.get pools c.nprocs in
  let work = Exec.static_of_assignment per_proc in
  let inst = Exec.measure pool compiled work ~steps in
  let order_free =
    lazy (Exec.reexecution_safe compiled && writes_conflict_free c)
  in
  let brute_per, brute_union = brute_footprints c per_proc in
  let sim_per = Sim.footprints sim in
  let mismatch = ref None in
  Array.iteri
    (fun p bf ->
      if !mismatch = None
         && (inst.Exec.footprints.(p) <> bf || sim_per.(p) <> bf)
      then mismatch := Some (p, bf, inst.Exec.footprints.(p), sim_per.(p)))
    brute_per;
  match !mismatch with
  | Some (p, bf, rt, sm) ->
      fail "runtime-sim-agree"
        "proc %d footprint: brute=%d runtime-bitset=%d sim=%d" p bf rt sm
  | None ->
      let want = Array.map (fun n -> steps * n) (Scheduling.loads per_proc) in
      if inst.Exec.iterations <> want then
        fail "runtime-sim-agree" "procs executed %s iterations, want %s"
          (ivec_str inst.Exec.iterations) (ivec_str want)
      else if inst.Exec.distinct_total <> brute_union then
        fail "runtime-sim-agree" "union footprint: runtime=%d brute=%d"
          inst.Exec.distinct_total brute_union
      else if sim.Sim.distinct_total <> brute_union then
        fail "runtime-sim-agree" "union footprint: sim=%d brute=%d"
          sim.Sim.distinct_total brute_union
      else
        first_some
          [
            (fun () ->
              check_tiles pool compiled ~steps ~order_free c sched per_proc);
            (fun () ->
              let sheared =
                Codegen.make c.nest (sheared c) ~nprocs:c.nprocs
              in
              check_tiles pool compiled ~steps ~order_free c sheared
                (Scheduling.of_schedule sheared));
          ]

(* ------------------------------------------------------------------ *)
(* Oracle 4: simulator traffic invariant under processor relabeling    *)
(* ------------------------------------------------------------------ *)

let check_relabel (c : Gen.case) sim per_proc =
  if c.nprocs < 2 then None
  else begin
    let n = Array.length per_proc in
    let relabeled = Array.init n (fun p -> per_proc.(n - 1 - p)) in
    let sim' = Sim.run_assignment c.nest ~per_proc:relabeled Sim.default in
    let sorted r =
      let a = Array.copy (Stats.touched r.Sim.stats) in
      Array.sort compare a;
      a
    in
    let s1 = sim.Sim.stats and s2 = sim'.Sim.stats in
    if sorted sim <> sorted sim' then
      fail "sim-relabel-invariant" "footprint multiset changed: %s vs %s"
        (ivec_str (sorted sim)) (ivec_str (sorted sim'))
    else if sim.Sim.distinct_total <> sim'.Sim.distinct_total then
      fail "sim-relabel-invariant" "distinct addresses changed: %d vs %d"
        sim.Sim.distinct_total sim'.Sim.distinct_total
    else if
      (s1.Stats.accesses, s1.Stats.reads, s1.Stats.writes, s1.Stats.sync_ops)
      <> (s2.Stats.accesses, s2.Stats.reads, s2.Stats.writes, s2.Stats.sync_ops)
    then
      fail "sim-relabel-invariant"
        "access counts changed: (%d,%d,%d,%d) vs (%d,%d,%d,%d)"
        s1.Stats.accesses s1.Stats.reads s1.Stats.writes s1.Stats.sync_ops
        s2.Stats.accesses s2.Stats.reads s2.Stats.writes s2.Stats.sync_ops
    else if
      (* With no writes there is no coherence traffic: under the default
         infinite cache every miss is a per-processor first touch, so the
         miss count is the sum of the footprints however processors are
         named. *)
      (not (List.exists Reference.is_write_like c.nest.Nest.body))
      && (s1.Stats.misses <> s2.Stats.misses
         || s1.Stats.misses
            <> Array.fold_left ( + ) 0 (Stats.touched sim.Sim.stats))
    then
      fail "sim-relabel-invariant"
        "read-only misses: %d vs %d (sum of footprints %d)" s1.Stats.misses
        s2.Stats.misses
        (Array.fold_left ( + ) 0 (Stats.touched sim.Sim.stats))
    else None
  end

(* ------------------------------------------------------------------ *)
(* Oracle 5: the optimizer never loses to exhaustive grid search       *)
(* ------------------------------------------------------------------ *)

(* Independent re-enumeration of processor grids (do not reuse
   Int_math.factorizations: a bug there would hide from a circular
   oracle). *)
let rec grids_of l n =
  if l = 1 then [ [ n ] ]
  else
    List.concat_map
      (fun d ->
        if n mod d = 0 then List.map (fun rest -> d :: rest) (grids_of (l - 1) (n / d))
        else [])
      (List.init n (fun i -> i + 1))

let check_optimizer (c : Gen.case) =
  let cost = Cost.of_nest c.nest in
  match Rectangular.optimize cost ~nprocs:c.nprocs with
  | exception Invalid_argument msg
    when (* too many processors for the space: documented precondition *)
         String.length msg >= 16
         && String.sub msg 0 11 = "Rectangular" ->
      None
  | r ->
      let extents = Nest.extents c.nest in
      let l = Array.length extents in
      let feasible =
        List.filter
          (fun grid -> List.for_all2 (fun p n -> p <= n) grid (Array.to_list extents))
          (grids_of l c.nprocs)
      in
      let objective_of grid =
        let sizes =
          Array.of_list
            (List.mapi (fun k p -> (extents.(k) + p - 1) / p) grid)
        in
        Cost.eval_objective cost (Array.map float_of_int sizes)
      in
      let best =
        List.fold_left (fun acc g -> Float.min acc (objective_of g)) infinity
          feasible
      in
      let chosen =
        Cost.eval_objective cost (Array.map float_of_int r.Rectangular.sizes)
      in
      let prod = Array.fold_left ( * ) 1 r.Rectangular.grid in
      if prod <> c.nprocs then
        fail "optimizer-dominates" "grid %s does not multiply to %d procs"
          (ivec_str r.Rectangular.grid) c.nprocs
      else if feasible = [] then
        fail "optimizer-dominates"
          "optimize returned a tile but independent search found no feasible \
           grid"
      else if chosen > best +. (1e-6 *. (1.0 +. Float.abs best)) then
        fail "optimizer-dominates"
          "chosen sizes %s cost %.6f but exhaustive grid search reaches %.6f"
          (ivec_str r.Rectangular.sizes) chosen best
      else None

(* ------------------------------------------------------------------ *)
(* Oracle 6: the resilient runtime recovers from injected faults       *)
(* ------------------------------------------------------------------ *)

let check_resilient (c : Gen.case) =
  (* Each scenario spawns pools of its own (one per attempt), so only a
     2% sample of cases pays for it. *)
  let compiled = lazy (Exec.compile c.nest) in
  let scenario =
    if c.id mod 50 = 0 then Some `Crash
    else if c.id mod 50 = 25 && c.nprocs >= 2 then Some `Stall
    else if
      c.id mod 50 = 12 && c.nprocs >= 2
      && Exec.reexecution_safe (Lazy.force compiled)
    then Some `Orphan_stall
    else None
  in
  match scenario with
  | None -> None
  | Some kind ->
      let compiled = Lazy.force compiled in
      let steps = Exec.steps_of_nest c.nest in
      (* The orphan stall runs one whole-space tile: the domain that
         claims it crashes, and the survivor re-executing the orphan
         stalls while the calling domain watches - on 2 domains, a lone
         survivor that no domain at the gate could watch. *)
      let tile =
        if kind = `Orphan_stall then Tile.rect (Nest.extents c.nest)
        else Tile.rect c.tile
      in
      let partition ~nprocs =
        Resilient.tiles_of_schedule (Codegen.make c.nest tile ~nprocs)
      in
      let plan_str, deadline_ms =
        (* The stall far exceeds the deadline: completion proves the
           watchdog (not patience) resolved it. *)
        match kind with
        | `Crash -> ("crash;crash", 10_000)
        | `Stall -> ("stall:2000", 100)
        | `Orphan_stall -> ("crash;stall:2000", 100)
      in
      let plan =
        match Fault.of_string plan_str with
        | Ok p -> p
        | Error e -> invalid_arg e
      in
      let config =
        {
          Resilient.policy = Resilient.Retry { attempts = 3; backoff_ms = 1 };
          deadline_ms;
        }
      in
      let report, buffer =
        Resilient.execute ~config ~plan ~compiled ~steps ~partition
          ~nprocs:c.nprocs ()
      in
      let injected_per_attempt =
        List.map
          (fun (a : Report.attempt) ->
            List.length
              (List.filter
                 (function Report.Injected _ -> true | _ -> false)
                 a.Report.events))
          report.Report.attempts
      in
      if not report.Report.completed then
        fail "resilient-recovery" "%s under retry did not complete: %s"
          plan_str
          (match List.rev report.Report.attempts with
          | { Report.outcome = Report.Failed r; _ } :: _ -> r
          | _ -> "no failure reason")
      else if kind <> `Crash && Report.timed_out_count report = 0 then
        fail "resilient-recovery"
          "2000 ms stall (%s) under a 100 ms deadline completed without a \
           Timed_out event"
          plan_str
      else if
        (* One-shot injection: every plan entry fires at most once
           across the whole job - concurrent claimers, retried attempts
           and degrade re-partitions included.  A wildcard site re-dealt
           to the smaller pool after degrading is the regression this
           guards against. *)
        (let hits = Hashtbl.create 4 in
         List.iter
           (function
             | Report.Injected { site; _ } ->
                 Hashtbl.replace hits site
                   (1 + Option.value ~default:0 (Hashtbl.find_opt hits site))
             | _ -> ())
           (Report.events report);
         Hashtbl.fold (fun _ n acc -> acc || n > 1) hits false)
      then
        fail "resilient-recovery"
          "a plan entry fired more than once (one-shot injection violated; \
           %d injections recorded for plan %s)"
          (Report.injected_count report)
          plan_str
      else if
        (* Without tile recovery the first fault fails the attempt and
           only it consumes a plan entry, however many domains race to
           a wildcard site: each of the two crashes costs exactly one
           failed attempt, and the third attempt runs clean. *)
        kind = `Crash
        && (not report.Report.tile_retry)
        && injected_per_attempt <> [ 1; 1; 0 ]
      then
        fail "resilient-recovery"
          "non-recoverable attempts consumed plan entries [%s], want \
           [1;1;0] (%d procs)"
          (String.concat ";" (List.map string_of_int injected_per_attempt))
          c.nprocs
      else if
        Exec.reexecution_safe compiled && writes_conflict_free c
        && buffer <> Exec.sequential compiled ~steps
      then
        fail "resilient-recovery"
          "recovered buffer differs from the sequential reference (%s, %d \
           procs, tile %s)"
          plan_str c.nprocs (ivec_str c.tile)
      else None

(* ------------------------------------------------------------------ *)
(* Oracle 8: kernel lowering agrees with the interpreter bit for bit   *)
(* ------------------------------------------------------------------ *)

(* Run the schedule's tile boxes through {!Kernel.run_box} (both the
   shape-specialized plan and the generic fallback) and through the
   point interpreter iterating the same boxes lexicographically, and
   demand byte-identical final buffers.  Comparing over the same boxes
   in the same order isolates what the kernel owns - incremental
   addressing, traversal reordering, shape specialization - from tile
   scheduling order, which other oracles cover. *)
let check_kernel_on (c : Gen.case) tile =
  let compiled = Exec.compile c.nest in
  let steps = Exec.steps_of_nest c.nest in
  let sched = Codegen.make c.nest tile ~nprocs:c.nprocs in
  let boxes =
    Array.concat (List.map snd (Array.to_list (Codegen.tiles sched)))
  in
  let ref_buf =
    let storage = Exec.alloc compiled in
    let run_box = Exec.run_box compiled storage in
    for _ = 1 to steps do
      Array.iter run_box boxes
    done;
    storage
  in
  let engine ~force_generic =
    let plan = Kernel.plan ~force_generic compiled in
    let storage = Exec.alloc compiled in
    for _ = 1 to steps do
      Array.iter (Kernel.run_box plan storage) boxes
    done;
    (plan, storage)
  in
  let compare_one ~force_generic () =
    let plan, buf = engine ~force_generic in
    let mismatch = ref (-1) in
    (if Array.length buf = Array.length ref_buf then begin
       let i = ref 0 in
       while !mismatch < 0 && !i < Array.length buf do
         if buf.(!i) <> ref_buf.(!i) then mismatch := !i;
         incr i
       done
     end
     else mismatch := Array.length ref_buf);
    if !mismatch >= 0 then
      let i = !mismatch in
      fail "kernel-interp-agree"
        "%s kernel (shape %s, order %s) diverges from the interpreter at \
         element %d: %h vs %h (tile %s, %d procs)"
        (if force_generic then "generic" else "specialized")
        (Kernel.shape plan)
        (ivec_str (Kernel.order plan))
        i
        (if i < Array.length buf then buf.(i) else Float.nan)
        (if i < Array.length ref_buf then ref_buf.(i) else Float.nan)
        (tile_str tile) c.nprocs
    else if Exec.checksum buf <> Exec.checksum ref_buf then
      fail "kernel-interp-agree"
        "buffers match but checksums differ (%h vs %h)"
        (Exec.checksum buf) (Exec.checksum ref_buf)
    else None
  in
  first_some
    [
      compare_one ~force_generic:false;
      compare_one ~force_generic:true;
    ]

(* Under the case's rectangular tile and its sheared parallelepiped. *)
let check_kernel (c : Gen.case) =
  first_some
    [
      (fun () -> check_kernel_on c (Tile.rect c.tile));
      (fun () -> check_kernel_on c (sheared c));
    ]

(* ------------------------------------------------------------------ *)
(* Oracle 9: barrier-free steps agree with the interpreter             *)
(* ------------------------------------------------------------------ *)

(* The case's rectangular tile scheduled on 2 and 3 real domains, run
   the way [Driver.execute] runs it.  [Exec.run] must skip its step
   barriers exactly when [Validate.classify], on the sets of the
   interpreter's all-steps [Exec.measure] over the same work, counts no
   element crossing domains: no race, no contended accumulate and no
   cross read.  Both sides classify with [Measure.sharing], so this
   checks the kernel's observed rows against the interpreter's over
   every step.  Whenever it skips them, its checksum must be that of
   [Exec.measure] - the interpreter with a barrier every step - bit for
   bit.  It runs three repeats, and must skip the reset between them
   exactly when [Exec.reexecution_safe] holds: its rows then hold no
   element both read and written, and nothing accumulates. *)
let check_barrier_free ~pools (c : Gen.case) =
  let compiled = Exec.compile c.nest in
  let steps = Exec.steps_of_nest c.nest in
  let plan = Kernel.plan compiled in
  let layout = Layout.of_nest c.nest in
  let elements = List.fold_left (fun acc (_, n) -> acc + n) 0 in
  let safe = lazy (Exec.reexecution_safe compiled) in
  let at nprocs () =
    let pool = Pools.get pools nprocs in
    let work =
      Exec.of_tiles
        (Codegen.tiles (Codegen.make c.nest (Tile.rect c.tile) ~nprocs))
    in
    let inst = Exec.measure pool compiled work ~steps in
    let k =
      Validate.classify layout
        (Measure.sharing ~reads:inst.Exec.read_sets
           ~writes:inst.Exec.write_sets ~accumulates:inst.Exec.accumulate_sets)
    in
    let want = k.Validate.crossing = 0 in
    let r =
      Exec.run ~trace:Trace.disabled ~box:(Kernel.run_box plan)
        ~observe:(Kernel.observe plan) pool compiled work ~steps ~repeats:3
    in
    let free = r.Measure.barriers = Measure.Barrier_free in
    let reused = r.Measure.repeat_buffer = Measure.Reused in
    if reused <> Lazy.force safe then
      fail "barrier-free-agree"
        "tile %s on %d procs: Exec.run skips the reset between repeats %b, \
         but Exec.reexecution_safe is %b"
        (tile_str (Tile.rect c.tile))
        nprocs reused (Lazy.force safe)
    else if free <> want then
      fail "barrier-free-agree"
        "tile %s on %d procs: Exec.run barrier-free %b, but Validate finds \
         %d racing and %d contended elements, %d crossing"
        (tile_str (Tile.rect c.tile))
        nprocs free (elements k.races) (elements k.contended) k.crossing
    else if
      free
      && Int64.bits_of_float r.Measure.checksum
         <> Int64.bits_of_float inst.Exec.checksum
    then
      fail "barrier-free-agree"
        "tile %s on %d procs, %d steps: barrier-free checksum %h, \
         interpreter with barriers %h"
        (tile_str (Tile.rect c.tile))
        nprocs steps r.Measure.checksum inst.Exec.checksum
    else None
  in
  first_some [ at 2; at 3 ]

(* ------------------------------------------------------------------ *)
(* Putting it together                                                 *)
(* ------------------------------------------------------------------ *)

(* The last processor with boxes loses its last iteration: its last box
   is re-decoded without its final point. *)
let apply_drop_fault fault per_proc =
  match fault with
  | Drop_iteration ->
      let out = Array.copy per_proc in
      let dropped = ref false in
      for p = Array.length out - 1 downto 0 do
        let n = Array.length out.(p) in
        if (not !dropped) && n > 0 then begin
          let last = out.(p).(n - 1) and kept = ref [] in
          Codegen.iter_range last 0 (Codegen.box_volume last - 1) (fun b ->
              kept := Array.copy b :: !kept);
          out.(p) <-
            Array.append
              (Array.sub out.(p) 0 (n - 1))
              (Array.of_list (List.rev !kept));
          dropped := true
        end
      done;
      out
  | _ -> per_proc

let check ~fault ~pools (c : Gen.case) =
  try
    let sched = Codegen.make c.nest (Tile.rect c.tile) ~nprocs:c.nprocs in
    let per_proc = apply_drop_fault fault (Scheduling.of_schedule sched) in
    let sim = lazy (Sim.run_assignment c.nest ~per_proc Sim.default) in
    first_some
      [
        (fun () -> check_single c);
        (fun () -> check_cumulative ~fault c);
        (fun () -> check_coverage c sched per_proc);
        (fun () -> check_runtime ~pools c sched (Lazy.force sim) per_proc);
        (fun () -> check_relabel c (Lazy.force sim) per_proc);
        (fun () -> check_optimizer c);
        (fun () -> check_resilient c);
        (fun () -> check_kernel c);
        (fun () -> check_barrier_free ~pools c);
      ]
  with e ->
    Some
      {
        oracle = "exception";
        detail = Printexc.to_string e;
      }
