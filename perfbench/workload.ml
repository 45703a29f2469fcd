(* The three pipeline workloads: fixed gallery nests run the way a user
   runs them, from the nest to a buffer checked against
   [Exec.sequential].  Each definition says which layer it exists to
   load and which layer it leaves out, so a change to one layer has one
   workload that exercises it and one on which the prediction is "no
   change".  Between them they load every layer from [Cost.of_nest] to
   the resilient step loop; a matmul workload was left out because it
   loads no layer these three miss. *)

open Loopir
module Driver = Loopart.Driver
module Programs = Loopart.Programs
module Exec = Runtime.Exec

type path =
  | Execute  (** [Driver.execute] *)
  | Resilient of string
      (** [Driver.execute_resilient] under this fault plan (the
          [--fault-plan] syntax), with the default Retry policy *)

type t = {
  name : string;
  nest : Nest.t;
  try_skewed : bool;
  config : Driver.exec_config;
  path : path;
  loads : string;  (** the layer this workload exists to load *)
  bypasses : string;  (** the layer it leaves (nearly) idle *)
  calib_domains : int;
      (** domains the host-speed calibration runs on ([Calib]): 2 where
          most of the time is spent in the P = 2 passes *)
}

(* Every workload runs P = 2 domains from one process. *)
let nprocs = 2
let base = Driver.default_exec_config

let stencil5_steps ~small =
  {
    name = "stencil5-steps";
    nest =
      Programs.stencil5 ~n:(if small then 24 else 256)
        ~steps:(if small then 3 else 200) ();
    try_skewed = false;
    config = { base with kernels = true };
    path = Execute;
    loads =
      "the step loop: 400 barrier episodes around ~65 us of Kernel work per \
       domain per step, then the interpreter's instrumented pass over all \
       200 steps";
    bypasses = "point materialisation (under 2% of the time)";
    calib_domains = 2;
  }

let stencil5_crash ~small =
  {
    name = "stencil5-crash";
    nest =
      Programs.stencil5 ~n:(if small then 24 else 512)
        ~steps:(if small then 3 else 20) ();
    try_skewed = false;
    config = { base with kernels = true };
    path = Resilient "crash";
    loads =
      "the resilient step loop: gate, heartbeats, re-execution of the \
       orphaned tile, over work built by hashing points \
       (Resilient.tiles_of_schedule); the only workload where recovery runs";
    bypasses = "Exec/Kernel.time's step loop and the instrumented pass";
    calib_domains = 1;
  }

let example3_pped ~small =
  {
    name = "example3-pped";
    nest = Programs.example3 ~n:(if small then 24 else 512) ();
    try_skewed = true;
    (* 16 steps: a ~60 ms timed pass, long next to pool start-up and
       barrier jitter. *)
    config = { base with steps = Some (if small then 2 else 16) };
    path = Execute;
    loads =
      "parallelepiped tiles: Skewed.optimize, HNF Codegen.tile_id and the \
       Codegen.num_tiles scan (tile [[256,0],[171,512]]), and per-point work \
       lists (Scheduling.of_schedule, ~1 s for 262,144 points)";
    bypasses = "Kernel (pped tiles keep the interpreter)";
    calib_domains = 1;
  }

let all ~small =
  [ stencil5_steps ~small; stencil5_crash ~small; example3_pped ~small ]

let find ~small name = List.find_opt (fun w -> w.name = name) (all ~small)
let names () = List.map (fun w -> w.name) (all ~small:false)

let steps w = Exec.steps_of_nest ?override:w.config.steps w.nest

let plan w =
  match w.path with
  | Execute -> None
  | Resilient s -> (
      match Runtime.Fault.of_string s with
      | Ok p -> Some p
      | Error e -> invalid_arg e)

(* {2 The checker} *)

type reference = { buffer : float array; checksum : float }

let reference_of_buffer buffer =
  (* Index order, the summation order of [Exec.checksum]. *)
  { buffer; checksum = Array.fold_left ( +. ) 0.0 buffer }

(* Computed once per workload, outside every timed region. *)
let reference w =
  let compiled = Exec.compile ~bigarray:w.config.bigarray w.nest in
  reference_of_buffer (Exec.sequential compiled ~steps:(steps w))

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let check_checksum reference checksum =
  if same_bits checksum reference.checksum then Ok ()
  else
    Error
      (Printf.sprintf "checksum %.17g differs from the reference %.17g"
         checksum reference.checksum)

let check_resilient reference (report : Runtime.Report.t) buffer =
  let n = Array.length reference.buffer in
  if not report.completed then Error "resilient run did not complete"
  else if not report.covered_exactly_once then
    Error "a tile was not covered exactly once"
  else if Array.length buffer <> n then
    Error
      (Printf.sprintf "buffer has %d elements, the reference %d"
         (Array.length buffer) n)
  else
    let rec first_diff i =
      if i = n then Ok ()
      else if same_bits buffer.(i) reference.buffer.(i) then first_diff (i + 1)
      else
        Error
          (Printf.sprintf "element %d is %.17g, the reference %.17g" i
             buffer.(i) reference.buffer.(i))
    in
    first_diff 0
