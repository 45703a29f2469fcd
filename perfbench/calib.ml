(* Host-speed calibration.  On a shared host each core switches between
   two speeds ~30% apart, several times a second, as other tenants load
   its hyperthread sibling; the share of time at the slow speed drifts
   over minutes, so a raw wall time measures the neighbours as much as
   the program.  A fixed piece of work in the benchmark's own code (no
   call into the program, so no change to the program moves it) is
   timed after every round; a run's timings are scaled by [nominal_s]
   over the calibration's trimmed mean, and read as seconds on a host
   that runs the calibration in [nominal_s]. *)

let now = Runtime.Mclock.now

(* About the calibration's time on a 2 GHz Xeon core whose sibling is
   busy, the host's usual state. *)
let nominal_s = 0.028

(* A mix like the pipeline's: a float 5-point stencil, as in the
   compute pass; random reads and writes of an int table, as in the
   hash scans; and short-lived boxed allocation, as in the work lists.
   The arrays are allocated once, so page faults and major-heap growth
   stay out of the timing. *)
let n = 256

type buffers = { a : float array; b : float array; table : int array }

(* One set per domain a calibration runs on. *)
let buffers =
  Array.init 2 (fun _ ->
      { a = Array.make (n * n) 1.0; b = Array.make (n * n) 0.0;
        table = Array.make 65536 0 })

let work { a; b; table } =
  for s = 1 to 20 do
    let src, dst = if s land 1 = 1 then (a, b) else (b, a) in
    for i = 1 to n - 2 do
      for j = 1 to n - 2 do
        let k = (i * n) + j in
        dst.(k) <-
          0.2 *. (src.(k) +. src.(k - 1) +. src.(k + 1) +. src.(k - n) +. src.(k + n))
      done
    done
  done;
  let h = ref 1 in
  for _ = 1 to 1_500_000 do
    h := (!h * 0x9E3779B1) land 0xFFFFFFF;
    let k = !h land 0xFFFF in
    table.(k) <- table.(k) + !h
  done;
  let total = ref 0 in
  for i = 1 to 50_000 do
    total := !total + List.fold_left ( + ) 0 (List.init 32 (fun j -> i + j))
  done;
  ignore (Sys.opaque_identity (a.(n + 1), table.(0), !total))

(* Seconds one calibration takes now, run on 1 or 2 domains at once:
   work split across domains waits for the slower core, as the
   program's barriers do, so it needs the 2-domain figure. *)
let time ~domains =
  if domains < 1 || domains > Array.length buffers then
    invalid_arg "Calib.time: domains";
  Gc.full_major ();
  let t0 = now () in
  let others =
    List.init (domains - 1) (fun i -> Domain.spawn (fun () -> work buffers.(i + 1)))
  in
  work buffers.(0);
  List.iter Domain.join others;
  now () -. t0

(* The factor that turns times measured alongside calibrations [c]
   into seconds at the nominal speed. *)
let factor c = nominal_s /. Stats.trimmed_mean c
