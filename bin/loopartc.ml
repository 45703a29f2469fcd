(* loopartc - the command-line front end of the partitioner: the
   OCaml analogue of the Alewife compiler pipeline of Figure 10.

   Subcommands:
     list               enumerate the built-in program gallery
     show NAME          print a program in Doall pseudo-code
     analyze NAME|FILE  classify references, print footprint polynomials
                        and the chosen partition
     simulate NAME|FILE run the chosen partition on the simulated machine
     codegen NAME|FILE  print the generated SPMD loop structure *)

open Cmdliner

let load source =
  match Loopart.Programs.find source with
  | Some nest -> nest
  | None ->
      if Sys.file_exists source then
        let ic = open_in source in
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () ->
            let n = in_channel_length ic in
            let s = really_input_string ic n in
            Loopir.Parse.nest_of_string ~name:(Filename.basename source) s)
      else
        raise
          (Loopir.Parse.Parse_error
             (Printf.sprintf
                "%S is neither a gallery program nor a readable file (try \
                 'loopartc list')"
                source))

let source_arg =
  let doc =
    "Program to process: a gallery name (see $(b,list)) or a path to a file \
     in the Doall surface syntax."
  in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"PROGRAM" ~doc)

(* A count that must be at least 1, refused while the command line is
   parsed: the error names the flag and nothing has run yet. *)
let positive_int =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 1 -> Ok n
    | _ -> Error (`Msg (Printf.sprintf "expected a positive integer, got %S" s))
  in
  Arg.conv (parse, Format.pp_print_int)

let nprocs_arg =
  let doc = "Number of processors to partition for." in
  Arg.(value & opt positive_int 16 & info [ "p"; "processors" ] ~docv:"P" ~doc)

let skewed_arg =
  let doc = "Also try general parallelepiped (skewed) tiles." in
  Arg.(value & flag & info [ "skewed" ] ~doc)

(* Every expected failure - unparsable or truncated nest files, bad
   sites in a fault plan, impossible configurations - becomes a one-line
   diagnostic and exit code 2 (see the eval wrapper at the bottom),
   never a backtrace. *)
let wrap f = try Ok (f ()) with
  | Loopir.Parse.Parse_error msg -> Error (`Msg msg)
  | Invalid_argument msg | Failure msg | Sys_error msg -> Error (`Msg msg)
  | End_of_file -> Error (`Msg "unexpected end of file (truncated input?)")

let list_cmd =
  let array_summary nest =
    (* e.g. "A 1w, B 2r": per array, how many writes/accumulates/reads
       the body makes - enough to pick a workload without show-ing it. *)
    String.concat ", "
      (List.map
         (fun a ->
           let refs = Loopir.Nest.references_to nest a in
           let count k =
             List.length
               (List.filter
                  (fun (r : Loopir.Reference.t) -> r.Loopir.Reference.kind = k)
                  refs)
           in
           let part n suffix =
             if n = 0 then "" else string_of_int n ^ suffix
           in
           Printf.sprintf "%s %s" a
             (String.concat ""
                [
                  part (count Loopir.Reference.Write) "w";
                  part (count Loopir.Reference.Accumulate) "a";
                  part (count Loopir.Reference.Read) "r";
                ]))
         (Loopir.Nest.arrays nest))
  in
  let run () =
    List.iter
      (fun (name, nest) ->
        Format.printf "%-18s %d-deep doall over %s iterations%s; %s@." name
          (Loopir.Nest.nesting nest)
          (String.concat "x"
             (List.map string_of_int
                (Array.to_list (Loopir.Nest.extents nest))))
          (match nest.Loopir.Nest.seq with
          | Some s ->
              Printf.sprintf " (doseq %s: %d steps)" s.Loopir.Nest.var
                (s.Loopir.Nest.upper - s.Loopir.Nest.lower + 1)
          | None -> "")
          (array_summary nest))
      Loopart.Programs.all;
    Ok ()
  in
  Cmd.v
    (Cmd.info "list"
       ~doc:
         "List the built-in program gallery with each program's loop depth \
          and per-array read/write summary")
    Term.(term_result (const run $ const ()))

let show_cmd =
  let run source =
    wrap (fun () -> Format.printf "%a@." Loopir.Nest.pp (load source))
  in
  Cmd.v (Cmd.info "show" ~doc:"Print a program in Doall pseudo-code")
    Term.(term_result (const run $ source_arg))

let analyze_cmd =
  let run source nprocs skewed =
    wrap (fun () ->
        let nest = load source in
        let a = Loopart.Driver.analyze ~try_skewed:skewed ~nprocs nest in
        Format.printf "%a@." Loopart.Driver.report a)
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Classify references, print footprint polynomials, partition, and \
          compare against the baselines")
    Term.(term_result (const run $ source_arg $ nprocs_arg $ skewed_arg))

let simulate_cmd =
  let aligned_arg =
    let doc =
      "Distributed-memory run: 2-D mesh with loop-tile-aligned placement."
    in
    Arg.(value & flag & info [ "aligned" ] ~doc)
  in
  let run source nprocs skewed aligned =
    wrap (fun () ->
        let nest = load source in
        let a = Loopart.Driver.analyze ~try_skewed:skewed ~nprocs nest in
        let tile = Loopart.Driver.best_tile a in
        Format.printf "partition: %a@." Partition.Tile.pp tile;
        let r =
          if aligned then Loopart.Driver.simulate_aligned ~tile a
          else Loopart.Driver.simulate ~tile a
        in
        Format.printf "%a@." Machine.Sim.pp_result r)
  in
  Cmd.v
    (Cmd.info "simulate"
       ~doc:"Execute the chosen partition on the simulated multiprocessor")
    Term.(
      term_result
        (const run $ source_arg $ nprocs_arg $ skewed_arg $ aligned_arg))

let codegen_cmd =
  let run source nprocs =
    wrap (fun () ->
        let nest = load source in
        let a = Loopart.Driver.analyze ~nprocs nest in
        let sched = Loopart.Driver.schedule a in
        print_string (Partition.Codegen.emit_pseudocode sched);
        let mn, mx, imb = Partition.Codegen.load_balance sched in
        Format.printf "load: min %d, max %d iterations/proc (imbalance %.3f)@."
          mn mx imb)
  in
  Cmd.v
    (Cmd.info "codegen" ~doc:"Print the generated SPMD loop structure")
    Term.(term_result (const run $ source_arg $ nprocs_arg))

let run_cmd =
  let policy_arg =
    let parse s =
      match String.split_on_char ':' s with
      | [ "tiled" ] -> Ok Loopart.Driver.Tiled
      | [ "cyclic" ] -> Ok Loopart.Driver.Cyclic
      | [ "gss" ] | [ "guided" ] -> Ok Loopart.Driver.Guided
      | [ "block"; c ] -> (
          match int_of_string_opt c with
          | Some c when c >= 1 -> Ok (Loopart.Driver.Block_cyclic c)
          | Some _ | None -> Error (`Msg "block:N needs N >= 1"))
      | [ "steal" ] -> Ok (Loopart.Driver.Work_steal 4)
      | [ "steal"; c ] -> (
          match int_of_string_opt c with
          | Some c when c >= 1 -> Ok (Loopart.Driver.Work_steal c)
          | Some _ | None -> Error (`Msg "steal:N needs N >= 1"))
      | _ ->
          Error
            (`Msg
              (Printf.sprintf
                 "unknown policy %S (tiled | cyclic | block:N | gss | \
                  steal[:N])"
                 s))
    in
    let print ppf p =
      Format.pp_print_string ppf
        (match p with
        | Loopart.Driver.Tiled -> "tiled"
        | Loopart.Driver.Cyclic -> "cyclic"
        | Loopart.Driver.Block_cyclic c -> Printf.sprintf "block:%d" c
        | Loopart.Driver.Guided -> "gss"
        | Loopart.Driver.Work_steal c -> Printf.sprintf "steal:%d" c)
    in
    let doc =
      "Execution policy: $(b,tiled) (the compile-time partition), \
       $(b,cyclic), $(b,block:N), $(b,gss) (run-time self-scheduling over a \
       shared counter), or $(b,steal[:N]) (tiled queues with work \
       stealing)."
    in
    Arg.(
      value
      & opt (conv (parse, print)) Loopart.Driver.Tiled
      & info [ "policy" ] ~docv:"POLICY" ~doc)
  in
  let repeats_arg =
    let doc = "Timed repetitions; the minimum wall-clock is reported." in
    Arg.(value & opt positive_int 3 & info [ "repeats" ] ~docv:"N" ~doc)
  in
  let steps_arg =
    let doc = "Override the outer sequential (doseq) trip count." in
    Arg.(
      value & opt (some positive_int) None & info [ "steps" ] ~docv:"N" ~doc)
  in
  let validate_arg =
    let doc =
      "Also validate the compile-time tiles, whatever the policy, without \
       executing them again: write-race freedom and runtime-vs-simulator \
       footprint agreement from the kernel's cursor walk, and, for a \
       deterministic nest, the run's operands against the sequential \
       interpreter's, element by element.  Exit 2 unless the verdict is OK \
       and (tiled policy) the run's footprints equal the validated ones."
    in
    Arg.(value & flag & info [ "validate" ] ~doc)
  in
  let fault_plan_arg =
    let parse s =
      match Runtime.Fault.of_string s with
      | Ok p -> Ok p
      | Error e -> Error (`Msg e)
    in
    let doc =
      "Inject faults at chosen sites and run under the fault-tolerant \
       runtime.  $(docv) is a $(b,;)-separated list of \
       ACTION[@[dD][sS][cC]] where ACTION is $(b,crash), $(b,stall:MS) or \
       $(b,corrupt); an omitted dD fires on any domain, step defaults to \
       1, claim to 0 (e.g. $(b,crash;stall:250@s2))."
    in
    Arg.(
      value
      & opt (some (conv (parse, Runtime.Fault.pp))) None
      & info [ "fault-plan" ] ~docv:"PLAN" ~doc)
  in
  let fault_policy_arg =
    let parse s =
      match Runtime.Resilient.policy_of_string s with
      | Ok p -> Ok p
      | Error e -> Error (`Msg e)
    in
    let print ppf p =
      Format.pp_print_string ppf (Runtime.Resilient.policy_to_string p)
    in
    let doc =
      "Recovery policy for the fault-tolerant runtime: $(b,fail-fast), \
       $(b,retry[:ATTEMPTS[:BACKOFF_MS]]) or $(b,degrade).  Implies a \
       resilient run even without $(b,--fault-plan)."
    in
    Arg.(
      value
      & opt (some (conv (parse, print))) None
      & info [ "fault-policy" ] ~docv:"POLICY" ~doc)
  in
  let deadline_arg =
    let doc =
      "Watchdog deadline: a domain whose heartbeat is silent this long is \
       declared timed out (resilient runs only; at least 1)."
    in
    Arg.(value & opt positive_int 1000 & info [ "deadline-ms" ] ~docv:"MS" ~doc)
  in
  let report_json_arg =
    let doc =
      "Write the structured resilience report as JSON to $(docv).  Implies \
       a resilient run."
    in
    Arg.(
      value & opt (some string) None & info [ "report-json" ] ~docv:"FILE" ~doc)
  in
  let trace_arg =
    let doc =
      "Record per-domain execution spans (tiles, barrier waits, steals, \
       watchdog verdicts) and write them as Chrome trace_event JSON to \
       $(docv) (load in chrome://tracing or ui.perfetto.dev)."
    in
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)
  in
  let metrics_arg =
    let doc =
      "Print the compact trace metrics summary (tiles run, steals, backoff \
       yields, fault counters, per-span-kind busy time)."
    in
    Arg.(value & flag & info [ "metrics" ] ~doc)
  in
  let run source nprocs skewed policy repeats steps validate
      fault_plan fault_policy deadline_ms report_json trace_file metrics =
    wrap (fun () ->
        let nest = load source in
        let a = Loopart.Driver.analyze ~try_skewed:skewed ~nprocs nest in
        let tile = Loopart.Driver.best_tile a in
        Format.printf "partition: %a on %d domains@." Partition.Tile.pp tile
          nprocs;
        let trace =
          if trace_file <> None || metrics then
            Some (Runtime.Trace.create ~domains:nprocs ())
          else None
        in
        let config =
          {
            Loopart.Driver.default_exec_config with
            Loopart.Driver.policy;
            repeats;
            steps;
            trace;
          }
        in
        let resilient =
          fault_plan <> None || fault_policy <> None || report_json <> None
        in
        let failure = ref None and operands = ref [||] in
        let footprints = ref None in
        if resilient then begin
          let resilience =
            {
              Runtime.Resilient.deadline_ms;
              policy =
                Option.value
                  ~default:
                    Runtime.Resilient.default_config.Runtime.Resilient.policy
                  fault_policy;
            }
          in
          let report, buffer =
            Loopart.Driver.execute_resilient ~config ~resilience
              ?plan:fault_plan ~tile a
          in
          Format.printf "%a@." Runtime.Report.pp report;
          (match report_json with
          | Some file ->
              let oc = open_out file in
              Fun.protect
                ~finally:(fun () -> close_out_noerr oc)
                (fun () -> output_string oc (Runtime.Report.to_json report));
              Format.printf "report written to %s@." file
          | None -> ());
          if not report.Runtime.Report.completed then
            failure := Some "resilient run did not complete (see report above)";
          operands := buffer
        end
        else begin
          let report = Loopart.Driver.execute ~config ~tile a in
          Format.printf "%a@." Runtime.Measure.pp_report report;
          operands := report.Runtime.Measure.operands;
          footprints :=
            Some
              (Array.map
                 (fun (d : Runtime.Measure.domain_stat) ->
                   d.Runtime.Measure.footprint)
                 report.Runtime.Measure.per_domain);
          (* The resilient report embeds its own metrics summary; plain
             runs print it here on request. *)
          match trace with
          | Some tr when metrics ->
              Format.printf "%a@." Runtime.Trace.pp_summary
                (Runtime.Trace.summary tr)
          | Some _ | None -> ()
        end;
        (* Dump the trace even when the run failed: a trace of the
           failing run is exactly what one wants to look at. *)
        (match (trace, trace_file) with
        | Some tr, Some file ->
            let oc = open_out file in
            Fun.protect
              ~finally:(fun () -> close_out_noerr oc)
              (fun () -> output_string oc (Runtime.Trace.to_chrome_json tr));
            Format.printf "trace written to %s@." file
        | _ -> ());
        (match !failure with Some msg -> failwith msg | None -> ());
        if validate then begin
          let steps = Runtime.Exec.steps_of_nest ?override:steps nest in
          let v = Loopart.Driver.validate ~tile a ~steps ~operands:!operands in
          Format.printf "%a@." Runtime.Validate.pp v;
          (* Under the compile-time tiles the run's footprints must be the
             validator's: the same cursor walk over the same boxes.
             Another policy ran a different schedule from the one
             validated. *)
          (match (policy, !footprints) with
          | Loopart.Driver.Tiled, Some run ->
              let same = run = v.Runtime.Validate.measured_footprints in
              Format.printf "footprints = validated footprints: %b@." same;
              if not same then
                failwith "footprints differ from the validated footprints"
          | Loopart.Driver.Tiled, None -> ()
          | _ ->
              Format.printf
                "note: the validation above is of the compile-time tiles, \
                 not of this run's schedule; of this run only the operands \
                 are checked (deterministic nests)@.");
          if not (Runtime.Validate.ok v) then
            failwith "validation failed (see the verdict above)"
        end)
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:
         "Execute the partitioned nest for real on OCaml domains and report \
          per-domain time, iterations and measured footprints against the \
          model's prediction; with $(b,--fault-plan)/$(b,--fault-policy), \
          run under the fault-tolerant runtime instead")
    Term.(
      term_result
        (const run $ source_arg $ nprocs_arg $ skewed_arg $ policy_arg
       $ repeats_arg $ steps_arg $ validate_arg
       $ fault_plan_arg $ fault_policy_arg $ deadline_arg $ report_json_arg
       $ trace_arg $ metrics_arg))

let evaluate_cmd =
  let run source nprocs =
    wrap (fun () ->
        let nest = load source in
        let a = Loopart.Driver.analyze ~nprocs nest in
        let cost = a.Loopart.Driver.cost in
        let params = Machine.Timing.alewife_like in
        Format.printf "latency model: %a@.@." Machine.Timing.pp_params params;
        Format.printf "%-28s %14s %14s %14s@." "partition" "misses"
          "net hops" "est. cycles";
        let extents = Loopir.Nest.extents nest in
        let l = Array.length extents in
        let slab k =
          Array.mapi
            (fun k' x -> if k' = k then max 1 (x / max 1 nprocs) else x)
            extents
        in
        let chosen = a.Loopart.Driver.rect.Partition.Rectangular.tile in
        let candidates =
          (Printf.sprintf "optimized %s" (Partition.Tile.to_string chosen),
           chosen)
          :: List.map
               (fun k -> (Printf.sprintf "slab along dim %d" k,
                          Partition.Tile.rect (slab k)))
               (List.init l Fun.id)
        in
        List.iter
          (fun (name, tile) ->
            let sched = Partition.Codegen.make nest tile ~nprocs in
            let placement = Partition.Data_partition.aligned sched cost in
            let r =
              Machine.Sim.run sched
                {
                  Machine.Sim.default with
                  Machine.Sim.topology = Machine.Sim.Mesh2d;
                  placement = Some placement;
                }
            in
            Format.printf "%-28s %14d %14d %14.0f@." name
              r.Machine.Sim.stats.Machine.Stats.misses
              r.Machine.Sim.stats.Machine.Stats.network_hops
              (Machine.Timing.cycles r.Machine.Sim.stats ~nprocs params))
          candidates)
  in
  Cmd.v
    (Cmd.info "evaluate"
       ~doc:
         "Estimate end-to-end execution time of the chosen partition \
          against naive slab partitions (simulated mesh + latency model)")
    Term.(term_result (const run $ source_arg $ nprocs_arg))

let sweep_cmd =
  let simulate_arg =
    let doc = "Also simulate each candidate (slower)." in
    Arg.(value & flag & info [ "simulate" ] ~doc)
  in
  let run source nprocs do_sim =
    wrap (fun () ->
        let nest = load source in
        let cost = Partition.Cost.of_nest nest in
        let extents = Loopir.Nest.extents nest in
        let l = Array.length extents in
        let grids =
          List.filter
            (fun fs ->
              List.for_all2 (fun p n -> p <= n) fs (Array.to_list extents))
            (Intmath.Int_math.factorizations l nprocs)
        in
        Format.printf "%-16s %-16s %12s %12s%s@." "grid" "tile" "pred miss"
          "objective"
          (if do_sim then "      sim miss" else "");
        List.iter
          (fun grid ->
            let sizes =
              Array.of_list
                (List.mapi
                   (fun k p -> Intmath.Int_math.ceil_div extents.(k) p)
                   grid)
            in
            let tile = Partition.Tile.rect sizes in
            let pred = Partition.Cost.misses_per_tile cost tile in
            let obj =
              Partition.Cost.eval_objective cost
                (Array.map float_of_int sizes)
            in
            let sim_txt =
              if do_sim then
                let sched = Partition.Codegen.make nest tile ~nprocs in
                let r = Machine.Sim.run sched Machine.Sim.default in
                Printf.sprintf " %13d" r.Machine.Sim.stats.Machine.Stats.misses
              else ""
            in
            Format.printf "%-16s %-16s %12d %12.0f%s@."
              (String.concat "x" (List.map string_of_int grid))
              (String.concat "x"
                 (List.map string_of_int (Array.to_list sizes)))
              pred obj sim_txt)
          grids)
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:
         "Enumerate every feasible processor grid and print the predicted \
          cost of each tile shape (optionally simulating them)")
    Term.(term_result (const run $ source_arg $ nprocs_arg $ simulate_arg))

let fuzz_cmd =
  let seed_arg =
    let doc = "PRNG seed; a failure report names the seed that replays it." in
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"S" ~doc)
  in
  let count_arg =
    let doc = "Number of random cases to generate and check." in
    Arg.(value & opt int 100 & info [ "count" ] ~docv:"N" ~doc)
  in
  let fault_arg =
    let parse s =
      match Proptest.Oracle.fault_of_string s with
      | Some f -> Ok f
      | None ->
          Error
            (`Msg
              (Printf.sprintf
                 "unknown fault %S (none | spread-off-by-one | drop-iteration)"
                 s))
    in
    let print ppf f =
      Format.pp_print_string ppf (Proptest.Oracle.fault_to_string f)
    in
    let doc =
      "Inject a known bug to prove the oracles catch it: \
       $(b,spread-off-by-one) perturbs the class spread vector, \
       $(b,drop-iteration) deletes one scheduled iteration."
    in
    Arg.(
      value
      & opt (conv (parse, print)) Proptest.Oracle.No_fault
      & info [ "inject-fault" ] ~docv:"FAULT" ~doc)
  in
  let out_arg =
    let doc = "Write the shrunk counterexample report to $(docv) on failure." in
    Arg.(
      value
      & opt string "fuzz-counterexample.txt"
      & info [ "out" ] ~docv:"FILE" ~doc)
  in
  let max_failures_arg =
    let doc = "Stop after this many failures have been collected and shrunk." in
    Arg.(value & opt int 3 & info [ "max-failures" ] ~docv:"K" ~doc)
  in
  let run seed count fault out max_failures =
    wrap (fun () ->
        let progress id =
          if id > 0 then Format.eprintf "fuzz: %d/%d cases...@." id count
        in
        let o =
          Proptest.Fuzz.run ~fault ~max_failures ~progress ~seed ~count ()
        in
        Format.printf "%a" Proptest.Fuzz.pp_outcome o;
        if o.Proptest.Fuzz.failures <> [] then begin
          let oc = open_out out in
          Fun.protect
            ~finally:(fun () -> close_out_noerr oc)
            (fun () ->
              List.iter
                (fun f ->
                  output_string oc (Proptest.Fuzz.render_failure o f))
                o.Proptest.Fuzz.failures);
          Format.printf "counterexample report written to %s@." out;
          raise
            (Invalid_argument
               (Printf.sprintf "fuzz: %d oracle violation(s)"
                  (List.length o.Proptest.Fuzz.failures)))
        end)
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Differential fuzzing: random affine nests cross-checked against \
          brute-force enumeration, the cache simulator, real-domain \
          execution, and exhaustive partition search; failures are shrunk \
          to a minimal replayable nest")
    Term.(
      term_result
        (const run $ seed_arg $ count_arg $ fault_arg $ out_arg
       $ max_failures_arg))

let main =
  let doc =
    "automatic partitioning of parallel loops for cache-coherent \
     multiprocessors (Agarwal, Kranz & Natarajan, ICPP 1993)"
  in
  Cmd.group (Cmd.info "loopartc" ~version:"1.0.0" ~doc)
    [ list_cmd; show_cmd; analyze_cmd; simulate_cmd; run_cmd; codegen_cmd; evaluate_cmd; sweep_cmd; fuzz_cmd ]

let () =
  (* One-line diagnostics (term_result errors) and command-line misuse
     both exit 2, so scripts and CI can distinguish "the input or flags
     were bad" from a crash. *)
  let code = Cmd.eval main in
  exit (match code with 123 | 124 -> 2 | c -> c)
