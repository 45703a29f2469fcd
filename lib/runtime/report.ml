type event =
  | Injected of { action : Fault.action; site : int; domain : int; step : int }
  | Crashed of { domain : int; step : int; exn : string }
  | Timed_out of { domain : int; step : int }
  | Tiles_reexecuted of { count : int; step : int }
  | Degraded of { from_procs : int; to_procs : int }
  | Sequential_fallback

type outcome = Completed | Failed of string

type attempt = {
  attempt : int;
  nprocs : int;
  outcome : outcome;
  events : event list;
  tiles_total : int;
  tiles_reexecuted : int;
  retired_domains : int list;
  backoff_ms : int;
  wall_seconds : float;
}

type t = {
  name : string;
  policy : string;
  plan : string;
  deadline_ms : int;
  steps : int;
  tile_retry : bool;
  attempts : attempt list;
  completed : bool;
  final_nprocs : int;
  total_wall_seconds : float;
  checksum : float;
  covered_exactly_once : bool;
  metrics : Trace.summary option;
}

let events t = List.concat_map (fun a -> a.events) t.attempts

let count f t = List.length (List.filter f (events t))

let injected_count = count (function Injected _ -> true | _ -> false)
let crashed_count = count (function Crashed _ -> true | _ -> false)
let timed_out_count = count (function Timed_out _ -> true | _ -> false)

let reexecuted_tiles t =
  List.fold_left (fun acc a -> acc + a.tiles_reexecuted) 0 t.attempts

let pp_event ppf = function
  | Injected { action; site; domain; step } ->
      Format.fprintf ppf "injected %s (plan entry %d) on domain %d at step %d"
        (Fault.action_to_string action)
        site domain step
  | Crashed { domain; step; exn } ->
      Format.fprintf ppf "domain %d crashed at step %d (%s)" domain step exn
  | Timed_out { domain; step } ->
      Format.fprintf ppf "watchdog: domain %d timed out at step %d" domain step
  | Tiles_reexecuted { count; step } ->
      Format.fprintf ppf "%d orphaned tile%s re-executed at step %d" count
        (if count = 1 then "" else "s")
        step
  | Degraded { from_procs; to_procs } ->
      Format.fprintf ppf "degraded from %d to %d domains" from_procs to_procs
  | Sequential_fallback -> Format.fprintf ppf "fell back to sequential execution"

let pp_outcome ppf = function
  | Completed -> Format.pp_print_string ppf "completed"
  | Failed reason -> Format.fprintf ppf "FAILED: %s" reason

let pp ppf t =
  Format.fprintf ppf "@[<v>=== resilience report: %s (%s%s) ===@," t.name
    t.policy
    (if t.plan = "" then "" else ", plan " ^ t.plan);
  Format.fprintf ppf "watchdog deadline %d ms; tile-level retry %s@,"
    t.deadline_ms
    (if t.tile_retry then "enabled (idempotent tiles)"
     else "disabled (tiles not idempotent)");
  List.iter
    (fun a ->
      Format.fprintf ppf "attempt %d on %s%s: %a (%.2f ms)@," a.attempt
        (if a.nprocs = 0 then "sequential"
         else Printf.sprintf "%d domains" a.nprocs)
        (if a.backoff_ms > 0 then Printf.sprintf " after %d ms backoff"
                                    a.backoff_ms
         else "")
        pp_outcome a.outcome
        (a.wall_seconds *. 1e3);
      List.iter (fun e -> Format.fprintf ppf "  %a@," pp_event e) a.events;
      if a.retired_domains <> [] then
        Format.fprintf ppf "  retired domains: %s@,"
          (String.concat ","
             (List.map string_of_int (List.sort compare a.retired_domains))))
    t.attempts;
  Format.fprintf ppf "verdict: %s in %.2f ms"
    (if t.completed then
       Printf.sprintf "completed on %s, every tile covered exactly once: %b"
         (if t.final_nprocs = 0 then "sequential fallback"
          else Printf.sprintf "%d domains" t.final_nprocs)
         t.covered_exactly_once
     else "FAILED")
    (t.total_wall_seconds *. 1e3);
  if t.completed then Format.fprintf ppf "; checksum %.6g" t.checksum;
  (match t.metrics with
  | Some m -> Format.fprintf ppf "@,%a" Trace.pp_summary m
  | None -> ());
  Format.fprintf ppf "@]"

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

let event_json e =
  let obj kind fields = Json.Obj (("event", Json.String kind) :: fields) in
  match e with
  | Injected { action; site; domain; step } ->
      obj "injected"
        [
          ("action", String (Fault.action_to_string action));
          ("site", Int site);
          ("domain", Int domain);
          ("step", Int step);
        ]
  | Crashed { domain; step; exn } ->
      obj "crashed"
        [ ("domain", Int domain); ("step", Int step); ("exn", String exn) ]
  | Timed_out { domain; step } ->
      obj "timed_out" [ ("domain", Int domain); ("step", Int step) ]
  | Tiles_reexecuted { count; step } ->
      obj "tiles_reexecuted" [ ("count", Int count); ("step", Int step) ]
  | Degraded { from_procs; to_procs } ->
      obj "degraded"
        [ ("from_procs", Int from_procs); ("to_procs", Int to_procs) ]
  | Sequential_fallback -> obj "sequential_fallback" []

let attempt_json a =
  Json.Obj
    [
      ("attempt", Int a.attempt);
      ("nprocs", Int a.nprocs);
      ( "outcome",
        String
          (match a.outcome with
          | Completed -> "completed"
          | Failed r -> "failed: " ^ r) );
      ("tiles_total", Int a.tiles_total);
      ("tiles_reexecuted", Int a.tiles_reexecuted);
      ( "retired_domains",
        List
          (List.map (fun d -> Json.Int d) (List.sort compare a.retired_domains))
      );
      ("backoff_ms", Int a.backoff_ms);
      ("wall_seconds", Float a.wall_seconds);
      ("events", List (List.map event_json a.events));
    ]

let to_json t =
  Json.to_string
    (Obj
       [
         ("name", String t.name);
         ("policy", String t.policy);
         ("plan", String t.plan);
         ("deadline_ms", Int t.deadline_ms);
         ("steps", Int t.steps);
         ("tile_retry", Bool t.tile_retry);
         ("completed", Bool t.completed);
         ("final_nprocs", Int t.final_nprocs);
         ("covered_exactly_once", Bool t.covered_exactly_once);
         ("total_wall_seconds", Float t.total_wall_seconds);
         ("checksum", Float t.checksum);
         ( "metrics",
           Option.fold ~none:Json.Null ~some:Trace.json_of_summary t.metrics );
         ("attempts", List (List.map attempt_json t.attempts));
       ])
  ^ "\n"
