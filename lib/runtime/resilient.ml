open Matrixkit

type policy =
  | Fail_fast
  | Retry of { attempts : int; backoff_ms : int }
  | Degrade

let policy_to_string = function
  | Fail_fast -> "fail-fast"
  | Retry { attempts; backoff_ms } ->
      Printf.sprintf "retry:%d:%d" attempts backoff_ms
  | Degrade -> "degrade"

let default_retry = Retry { attempts = 3; backoff_ms = 25 }

let policy_of_string s =
  let pos_int v = match int_of_string_opt v with
    | Some n when n >= 1 -> Some n
    | Some _ | None -> None
  in
  match String.split_on_char ':' s with
  | [ "fail-fast" ] | [ "failfast" ] -> Ok Fail_fast
  | [ "degrade" ] -> Ok Degrade
  | [ "retry" ] -> Ok default_retry
  | [ "retry"; a ] -> (
      match pos_int a with
      | Some attempts -> Ok (Retry { attempts; backoff_ms = 25 })
      | None -> Error "retry:ATTEMPTS needs ATTEMPTS >= 1")
  | [ "retry"; a; b ] -> (
      match (pos_int a, int_of_string_opt b) with
      | Some attempts, Some backoff_ms when backoff_ms >= 0 ->
          Ok (Retry { attempts; backoff_ms })
      | _ -> Error "retry:ATTEMPTS:BACKOFF_MS needs ATTEMPTS >= 1, BACKOFF_MS >= 0")
  | _ ->
      Error
        (Printf.sprintf
           "unknown fault policy %S (fail-fast | retry[:N[:MS]] | degrade)" s)

type config = { policy : policy; deadline_ms : int }

let default_config = { policy = default_retry; deadline_ms = 1000 }

(* Injected stalls re-check for an aborted attempt this often, so a
   watchdog verdict wakes the sleeper promptly. *)
let stall_poll_seconds = 0.005

type partitioned = { tiles : Exec.tile array; owners : int array }

let tiles_of_schedule sched =
  let tiles = Partition.Codegen.tiles sched in
  { tiles = Array.map snd tiles; owners = Array.map fst tiles }

(* ------------------------------------------------------------------ *)
(* Per-attempt machinery                                               *)
(* ------------------------------------------------------------------ *)

exception Injected_crash
exception Injected_corruption

(* Internal control flow, never escapes [execute]. *)
exception Retire  (* this domain is dead; unwind its step loop *)
exception Halt  (* the attempt was aborted; unwind quietly *)

(* A domain's place in the current step.  [Running] claims tiles,
   [Waiting] sits at the gate, [Helping] re-executes an orphan from the
   gate, [Retired] crashed for good. *)
type phase = Running | Waiting | Helping | Retired

(* The end-of-step gate: a mutex-protected dynamic barrier.  It opens
   once some domain is [Waiting], every domain is [Waiting] or
   [Retired] and no orphan is left, so a step never ends with work
   outstanding.  Waiters poll [epoch] with {!Pool.backoff}, servicing
   orphans while they wait. *)
type gate = {
  m : Mutex.t;
  epoch : int Atomic.t;  (** completed steps; step [s] released when >= s *)
  aborted : bool Atomic.t;
  faulted : bool Atomic.t;  (** a plan entry fired in this attempt *)
  phase : phase array;  (** per domain, written under [m] *)
  mutable orphans : int list;  (** tile ids awaiting re-execution *)
  mutable failure : string option;
  mutable events_rev : Report.event list;
  mutable reexec_step : int;
  mutable cover_ok : bool;
}

type ctx = {
  cfg : config;
  plan : Fault.plan;
  storage : Exec.storage;
  kplan : Kernel.plan;  (** each domain's {!job} applies {!Kernel.run_box} *)
  plain_writes : Ivec.t -> int list;
  steps : int;
  recover : bool;  (** tile-level crash recovery enabled *)
  tiles : Exec.tile array;
  source : Sched.source;  (** tiles by owner, with stealing *)
  hb : int Atomic.t array;  (** per domain: tiles, orphans taken, releases *)
  done_count : int Atomic.t array;  (** per-tile completions this step *)
  trace : Trace.t;
  g : gate;
}

type dstate = {
  me : int;
  mutable claims : int;
  exec_tile : int -> unit;  (** run every point of the tile once *)
}

let record g e = g.events_rev <- e :: g.events_rev

(* Called under the gate lock.  Releasing a domain into [Running] ticks
   its heartbeat, as taking an orphan does ({!watcher}). *)
let try_release ctx ~step =
  let g = ctx.g in
  if
    Array.mem Waiting g.phase
    && Array.for_all (fun ph -> ph = Waiting || ph = Retired) g.phase
    && g.orphans = []
    && (not (Atomic.get g.aborted))
    && Atomic.get g.epoch < step
  then begin
    for t = 0 to Array.length ctx.tiles - 1 do
      if Atomic.get ctx.done_count.(t) <> 1 then g.cover_ok <- false;
      Atomic.set ctx.done_count.(t) 0
    done;
    if g.reexec_step > 0 then begin
      record g (Report.Tiles_reexecuted { count = g.reexec_step; step });
      g.reexec_step <- 0
    end;
    Sched.reset ctx.source;
    Array.iteri
      (fun q ph ->
        if ph = Waiting then (g.phase.(q) <- Running; Atomic.incr ctx.hb.(q)))
      g.phase;
    Atomic.set g.epoch step
  end

let abort_locked g ~reason =
  if not (Atomic.get g.aborted) then begin
    g.failure <- Some reason;
    Atomic.set g.aborted true
  end

let interruptible_stall ctx ms =
  let until = Mclock.now () +. (float_of_int ms /. 1000.0) in
  let rec loop () =
    let remain = until -. Mclock.now () in
    if remain > 0.0 && not (Atomic.get ctx.g.aborted) then begin
      Unix.sleepf (Float.min stall_poll_seconds remain);
      loop ()
    end
  in
  loop ()

(* Every point of a tile stores through the same plain writes, so the
   first point names a target whenever the tile has one. *)
let corrupt_target ctx t =
  match Array.find_opt (fun b -> Exec.box_volume b > 0) ctx.tiles.(t) with
  | None -> None
  | Some b -> List.nth_opt (ctx.plain_writes (Array.map fst b)) 0

(* Without tile recovery the first fault fails the whole attempt, so
   only the first hit to win the attempt's [faulted] flag consumes its
   plan entry; a domain reaching another armed site before it sees the
   abort consumes nothing.  Such an attempt spends exactly one entry
   however many domains run truly in parallel. *)
let fire ctx ds ~step ~claim =
  if
    ctx.recover
    || Fault.armed ctx.plan ~domain:ds.me ~step ~claim
       && Atomic.compare_and_set ctx.g.faulted false true
  then Fault.fire ctx.plan ~domain:ds.me ~step ~claim
  else None

(* The resilient tile body: fault hook, then the tile, then the
   completion count and heartbeat.  Claimed tiles run inside the shared
   loop's tile span; orphans inside {!help_orphan}'s re-execution
   span. *)
let run_tile ctx ds ~step t =
  let g = ctx.g in
  if Atomic.get g.aborted then raise Halt;
  let claim = ds.claims in
  ds.claims <- ds.claims + 1;
  (match fire ctx ds ~step ~claim with
  | None -> ()
  | Some (site, action) -> (
      Trace.incr ctx.trace ds.me Trace.Faults_injected;
      Mutex.protect g.m (fun () ->
          record g (Report.Injected { action; site; domain = ds.me; step }));
      match action with
      | Fault.Crash -> raise Injected_crash
      | Fault.Corrupt ->
          (match corrupt_target ctx t with
          | Some a -> ctx.storage.(a) <- Float.nan
          | None -> ());
          raise Injected_corruption
      | Fault.Stall ms -> interruptible_stall ctx ms));
  if Atomic.get g.aborted then raise Halt;
  Trace.begin_span ctx.trace ds.me Trace.Exec ~arg:t;
  ds.exec_tile t;
  Trace.end_span ctx.trace ds.me;
  Atomic.incr ctx.done_count.(t);
  Atomic.incr ctx.hb.(ds.me)

(* A worker exception while holding tile [t].  With tile-level recovery
   the domain retires and orphans the tile - it has provably stopped
   executing, so a survivor can re-run the tile without write races.
   Without recovery (non-idempotent tiles, or Fail_fast) the whole
   attempt aborts. *)
let crashed ctx ds ~step ~tile exn_str =
  let g = ctx.g in
  Trace.incr ctx.trace ds.me Trace.Faults_detected;
  Mutex.protect g.m (fun () ->
      record g (Report.Crashed { domain = ds.me; step; exn = exn_str });
      if ctx.recover then begin
        g.orphans <- tile :: g.orphans;
        g.phase.(ds.me) <- Retired;
        try_release ctx ~step
      end
      else
        abort_locked g
          ~reason:
            (Printf.sprintf "domain %d crashed at step %d: %s" ds.me step
               exn_str));
  raise (if ctx.recover then Retire else Halt)

let guarded ctx ds ~step t =
  try run_tile ctx ds ~step t with
  | Halt -> raise Halt
  | exn -> crashed ctx ds ~step ~tile:t (Printexc.to_string exn)

(* While waiting at the gate, service one orphaned tile if any.  The
   helper's [Helping] phase keeps the gate shut until it finishes, and
   taking the orphan ticks its heartbeat: the watcher's snapshot from
   while it waited must not count against the orphan's run. *)
let help_orphan ctx ds ~step =
  let g = ctx.g in
  Mutex.lock g.m;
  match g.orphans with
  | t :: rest when g.phase.(ds.me) = Waiting && not (Atomic.get g.aborted) ->
      g.orphans <- rest;
      g.phase.(ds.me) <- Helping;
      Atomic.incr ctx.hb.(ds.me);
      Mutex.unlock g.m;
      Trace.begin_span ctx.trace ds.me Trace.Reexec ~arg:t;
      guarded ctx ds ~step t;
      Trace.end_span ctx.trace ds.me;
      Trace.incr ctx.trace ds.me Trace.Tiles_run;
      Mutex.protect g.m (fun () ->
          g.phase.(ds.me) <- Waiting;
          g.reexec_step <- g.reexec_step + 1;
          try_release ctx ~step);
      true
  | _ ->
      Mutex.unlock g.m;
      false

let gate_enter ctx ds ~step =
  let g = ctx.g in
  Mutex.protect g.m (fun () ->
      g.phase.(ds.me) <- Waiting;
      try_release ctx ~step);
  let spins = ref 0 and yielded = ref 0 in
  Fun.protect
    ~finally:(fun () -> Trace.add ctx.trace ds.me Trace.Backoff_yields !yielded)
    (fun () ->
      while Atomic.get g.epoch < step && not (Atomic.get g.aborted) do
        if help_orphan ctx ds ~step then spins := 0
        else (Pool.backoff ~yielded !spins; incr spins)
      done);
  if Atomic.get g.aborted then raise Halt

(* One domain's attempt: the shared step loop over the stolen tile
   queues, with {!run_tile} as the tile body and the gate as the step
   end.  A claimed tile's exception retires the domain or aborts the
   attempt ({!crashed}).  The domain runs its tiles through its own
   kernel body: one body's cursors serve one domain. *)
let job ctx me =
  let box = Kernel.run_box ctx.kplan ctx.storage in
  let exec_tile t = Array.iter box ctx.tiles.(t) in
  let ds = { me; claims = 0; exec_tile } in
  try
    Sched.run ~trace:ctx.trace ctx.source ~me ~steps:ctx.steps
      ~tile:(fun step t -> guarded ctx ds ~step t)
      ~chunk:(fun _ _ -> ())
      ~step_end:
        (Some
           (fun step ->
             gate_enter ctx ds ~step;
             ds.claims <- 0))
  with Retire | Halt -> ()

(* The watchdog, probed by the calling domain through {!Pool.run}'s
   [watch] hook every deadline (or second, if shorter): it times out a
   [Running] or [Helping] domain whose heartbeat has not moved since the
   previous probe.  Every switch into those phases ticks the heartbeat,
   so such a domain was silent for the whole window.  The verdict is
   taken under the gate lock, while the attempt is live. *)
let watcher ctx =
  let g = ctx.g in
  let after = float_of_int ctx.cfg.deadline_ms /. 1000.0 in
  let snap = Array.map Atomic.get ctx.hb in
  let due = ref (Mclock.now () +. after) in
  let silent q =
    (g.phase.(q) = Running || g.phase.(q) = Helping)
    && Atomic.get ctx.hb.(q) = snap.(q)
  in
  let probe () =
    if Mclock.now () > !due then begin
      Mutex.protect g.m (fun () ->
          let step = Atomic.get g.epoch + 1 in
          if (not (Atomic.get g.aborted)) && step <= ctx.steps then
            match Seq.find silent (Seq.init (Array.length snap) Fun.id) with
            | None -> ()
            | Some q ->
                record g (Report.Timed_out { domain = q; step });
                abort_locked g
                  ~reason:
                    (Printf.sprintf
                       "watchdog: domain %d heartbeat silent beyond %d ms at \
                        step %d"
                       q ctx.cfg.deadline_ms step));
      Array.iteri (fun q h -> snap.(q) <- Atomic.get h) ctx.hb;
      due := Mclock.now () +. after
    end
  in
  (Float.min after 1.0, probe)

(* ------------------------------------------------------------------ *)
(* Attempt driver                                                      *)
(* ------------------------------------------------------------------ *)

(* The boxes run through {!Kernel.run_box}, which addresses operands
   unchecked: the partition is checked as the work it is. *)
let make_ctx cfg plan kplan compiled steps (p : partitioned) ~size ~recover
    ~trace =
  Exec.check_work compiled
    (Exec.Tiled { tiles = p.tiles; owners = p.owners; steal = true });
  let ntiles = Array.length p.tiles in
  let storage = Exec.alloc compiled in
  {
    cfg;
    plan;
    storage;
    kplan;
    plain_writes = Exec.plain_write_addresses compiled;
    steps;
    recover;
    tiles = p.tiles;
    source = Sched.tiles ~steal:true ~nprocs:size p.owners;
    hb = Array.init size (fun _ -> Atomic.make 0);
    done_count = Array.init ntiles (fun _ -> Atomic.make 0);
    trace;
    g =
      {
        m = Mutex.create ();
        epoch = Atomic.make 0;
        aborted = Atomic.make false;
        faulted = Atomic.make false;
        phase = Array.make size Running;
        orphans = [];
        failure = None;
        events_rev = [];
        reexec_step = 0;
        cover_ok = true;
      };
  }

(* An attempt's record, its wall clock measured from [t0]. *)
let attempt_record ~attempt_no ~nprocs ~backoff_ms ~t0 ?(events = [])
    ?(tiles_total = 0) ?(retired = []) outcome =
  {
    Report.attempt = attempt_no;
    nprocs;
    outcome;
    events;
    tiles_total;
    tiles_reexecuted =
      List.fold_left
        (fun n -> function
          | Report.Tiles_reexecuted { count; _ } -> n + count
          | _ -> n)
        0 events;
    retired_domains = retired;
    backoff_ms;
    wall_seconds = Mclock.now () -. t0;
  }

(* One attempt on the job's pool, spawned by the first attempt whose
   partition is good: domains [me < size] run {!job}, the rest return
   at once. *)
let run_attempt cfg plan kplan compiled steps pool ~partition ~size ~recover
    ~trace ~attempt_no ~backoff_ms ~opening =
  let t0 = Mclock.now () in
  let attempt ?(events = []) =
    attempt_record ~attempt_no ~nprocs:size ~backoff_ms ~t0
      ~events:(opening @ events)
  in
  let failed reason = (attempt (Report.Failed reason), None) in
  match partition ~nprocs:size with
  | exception exn ->
      failed (Printf.sprintf "partition failed: %s" (Printexc.to_string exn))
  | p -> (
      match make_ctx cfg plan kplan compiled steps p ~size ~recover ~trace with
      | exception exn ->
          failed (Printf.sprintf "bad partition: %s" (Printexc.to_string exn))
      | ctx ->
          let g = ctx.g in
          (try
             Pool.run ~watch:(watcher ctx) (Lazy.force pool) (fun me _ ->
                 if me < size then job ctx me)
           with exn ->
             Mutex.protect g.m (fun () ->
                 abort_locked g
                   ~reason:
                     (Printf.sprintf "pool failure: %s"
                        (Printexc.to_string exn))));
          (* Workers own the trace lanes: trace the watchdog's verdict now. *)
          List.iter
            (function
              | Report.Timed_out { domain; step } ->
                  Trace.instant trace domain Trace.Watchdog ~arg:step;
                  Trace.incr trace domain Trace.Faults_detected
              | _ -> ())
            g.events_rev;
          let attempt =
            attempt ~events:(List.rev g.events_rev)
              ~tiles_total:(Array.length ctx.tiles)
              ~retired:
                (List.filter
                   (fun q -> g.phase.(q) = Retired)
                   (List.init size Fun.id))
          in
          if (not (Atomic.get g.aborted)) && Atomic.get g.epoch >= steps then
            ( attempt Report.Completed,
              Some (ctx.storage, Exec.checksum ctx.storage, g.cover_ok) )
          else
            let reason =
              Option.value
                ~default:"every domain crashed before the nest completed"
                g.failure
            in
            (attempt (Report.Failed reason), None))

(* ------------------------------------------------------------------ *)
(* Policy loop                                                         *)
(* ------------------------------------------------------------------ *)

(* Every pool attempt the policy allows, in order: its pool size, the
   backoff before it, and the events that open it.  Each size gets
   [tries] attempts with doubling backoff; [Degrade] halves the size
   down to one domain. *)
let attempt_list policy nprocs =
  let tries, backoff0 =
    match policy with
    | Fail_fast -> (1, 0)
    | Retry { attempts; backoff_ms } -> (max 1 attempts, max 0 backoff_ms)
    | Degrade -> (2, 25)
  in
  let rec at size opening k backoff =
    if k = tries then []
    else
      let next = if backoff = 0 then max 1 backoff0 else backoff * 2 in
      (size, backoff, opening) :: at size [] (k + 1) next
  in
  let rec sizes size opening =
    at size opening 0 0
    @
    if policy = Degrade && size > 1 then
      let smaller = size / 2 in
      sizes smaller
        [ Report.Degraded { from_procs = size; to_procs = smaller } ]
    else []
  in
  sizes nprocs []

let execute ?(config = default_config) ?(plan = Fault.none) ?kernels:_
    ?(trace = Trace.disabled) ~compiled ~steps ~partition ~nprocs () =
  if nprocs < 1 then invalid_arg "Resilient.execute: nprocs < 1";
  if steps < 1 then invalid_arg "Resilient.execute: steps < 1";
  if config.deadline_ms < 1 then
    invalid_arg "Resilient.execute: deadline_ms < 1";
  let kplan = Kernel.plan compiled in
  let t_job = Mclock.now () in
  let tile_retry = Exec.reexecution_safe compiled in
  let recover = config.policy <> Fail_fast && tile_retry in
  let attempts_rev = ref [] in
  (* Every attempt shares one pool: {!Pool.run} returns only once every
     worker has, and an injected stall polls the abort flag.  Spawning
     it only once the first partition and operands are built keeps the
     peak resident set where one pool per attempt had it, and the job's
     wall time includes joining it. *)
  let pool = lazy (Pool.create nprocs) in
  let shutdown () = if Lazy.is_val pool then Pool.shutdown (Lazy.force pool) in
  let finish ~completed ~final_nprocs ~buffer ~checksum ~cover =
    shutdown ();
    ( {
        Report.name = (Exec.nest compiled).Loopir.Nest.name;
        policy = policy_to_string config.policy;
        plan = Fault.to_string plan;
        deadline_ms = config.deadline_ms;
        steps;
        tile_retry;
        attempts = List.rev !attempts_rev;
        completed;
        final_nprocs;
        total_wall_seconds = Mclock.now () -. t_job;
        checksum;
        covered_exactly_once = cover;
        metrics =
          (if Trace.enabled trace then Some (Trace.summary trace) else None);
      },
      buffer )
  in
  let rec run = function
    | [] when config.policy = Degrade ->
        let t0 = Mclock.now () in
        let buffer = Kernel.sequential kplan ~steps in
        attempts_rev :=
          attempt_record ~attempt_no:(List.length !attempts_rev) ~nprocs:0
            ~backoff_ms:0 ~t0 ~events:[ Report.Sequential_fallback ]
            Report.Completed
          :: !attempts_rev;
        finish ~completed:true ~final_nprocs:0 ~buffer
          ~checksum:(Exec.checksum buffer) ~cover:true
    | [] ->
        finish ~completed:false ~final_nprocs:nprocs ~buffer:[||] ~checksum:0.0
          ~cover:false
    | (size, backoff_ms, opening) :: rest -> (
        if backoff_ms > 0 then Unix.sleepf (float_of_int backoff_ms /. 1000.0);
        let att, success =
          run_attempt config plan kplan compiled steps pool ~partition ~size
            ~recover ~trace ~attempt_no:(List.length !attempts_rev) ~backoff_ms
            ~opening
        in
        attempts_rev := att :: !attempts_rev;
        match success with
        | Some (buffer, checksum, cover) ->
            finish ~completed:true ~final_nprocs:size ~buffer ~checksum ~cover
        | None -> run rest)
  in
  Fun.protect ~finally:shutdown (fun () ->
      run (attempt_list config.policy nprocs))
