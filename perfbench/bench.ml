(* The pipeline benchmark's measuring process: one workload per process,
   so its peak resident memory is that workload's own.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1 [--rev REV]

   [--trace 0] prints the end-to-end metrics, [--trace 1] the per-layer
   breakdown; the last line of standard output is the result JSON.  The
   nests are fixed gallery programs, so [--seed] selects nothing; it is
   recorded with the result.  Normally started by run.py, which builds
   it first. *)

open Perfbench

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10.0 in
  let trace = ref 0 and rev = ref "unknown" in
  let spec =
    [
      ("--workload", Arg.Set_string workload,
       "NAME one of: " ^ String.concat ", " (Workload.names ()));
      ("--seed", Arg.Set_int seed, "N recorded with the result");
      ("--seconds", Arg.Set_float seconds, "S measuring time");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer metrics");
      ("--rev", Arg.Set_string rev, "REV source revision to record");
    ]
  in
  let usage = "bench.exe --workload NAME --seed N --seconds S --trace 0|1" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let fail msg =
    prerr_endline ("bench: " ^ msg);
    exit 2
  in
  let w =
    match Workload.find ~small:false !workload with
    | Some w -> w
    | None -> fail (Printf.sprintf "unknown workload %S" !workload)
  in
  if !trace <> 0 && !trace <> 1 then fail "--trace must be 0 or 1";
  if not (!seconds >= 0.0) then fail "--seconds must be >= 0";
  let run = if !trace = 1 then Sampler.traced else Sampler.untraced in
  let outcome = run ~seconds:!seconds ~min_rounds:3 w in
  Sampler.print
    { Sampler.workload = w; seed = !seed; trace = !trace = 1; rev = !rev }
    outcome
