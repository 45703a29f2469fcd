type kind =
  | Tile
  | Exec
  | Barrier
  | Chunk
  | Steal
  | Watchdog
  | Reexec
  | Step

let kind_name = function
  | Tile -> "tile"
  | Exec -> "exec"
  | Barrier -> "barrier"
  | Chunk -> "chunk"
  | Steal -> "steal"
  | Watchdog -> "watchdog"
  | Reexec -> "reexec"
  | Step -> "step"

let kind_index = function
  | Tile -> 0
  | Exec -> 1
  | Barrier -> 2
  | Chunk -> 3
  | Steal -> 4
  | Watchdog -> 5
  | Reexec -> 6
  | Step -> 7

let kind_of_index = [| Tile; Exec; Barrier; Chunk; Steal; Watchdog; Reexec; Step |]
let n_kinds = Array.length kind_of_index

type counter =
  | Tiles_run
  | Steals
  | Backoff_yields
  | Elements_touched
  | Faults_injected
  | Faults_detected

let counter_name = function
  | Tiles_run -> "tiles_run"
  | Steals -> "steals"
  | Backoff_yields -> "backoff_yields"
  | Elements_touched -> "elements_touched"
  | Faults_injected -> "faults_injected"
  | Faults_detected -> "faults_detected"

let counter_index = function
  | Tiles_run -> 0
  | Steals -> 1
  | Backoff_yields -> 2
  | Elements_touched -> 3
  | Faults_injected -> 4
  | Faults_detected -> 5

let n_counters = 6

(* Counter blocks are small and adjacent on the heap, so like
   {!Measure} they carry a guard region of [cpad] ints (128 bytes) on
   both sides: two domains bumping their own counters never share a
   cache line.  The span rings are thousands of elements, where only
   the boundary lines could ever be shared - not worth padding. *)
let cpad = 16

let max_depth = 32

type dom = {
  ring_kind : int array;
  ring_t0 : float array;
  ring_dur : float array;
  ring_arg : int array;
  capacity : int;
  mutable count : int;  (** spans ever recorded; ring slot = count mod cap *)
  stk_kind : int array;
  stk_t0 : float array;
  stk_arg : int array;
  mutable depth : int;
  counters : int array;  (** payload at [cpad .. cpad + n_counters - 1] *)
}

type t = { on : bool; origin : float; doms : dom array }

let disabled = { on = false; origin = 0.0; doms = [||] }

let create ?(capacity = 65536) ~domains () =
  if domains < 1 then invalid_arg "Trace.create: domains < 1";
  if capacity < 1 then invalid_arg "Trace.create: capacity < 1";
  {
    on = true;
    origin = Mclock.now ();
    doms =
      Array.init domains (fun _ ->
          {
            ring_kind = Array.make capacity 0;
            ring_t0 = Array.make capacity 0.0;
            ring_dur = Array.make capacity 0.0;
            ring_arg = Array.make capacity 0;
            capacity;
            count = 0;
            stk_kind = Array.make max_depth 0;
            stk_t0 = Array.make max_depth 0.0;
            stk_arg = Array.make max_depth 0;
            depth = 0;
            counters = Array.make (n_counters + (2 * cpad)) 0;
          });
  }

let enabled t = t.on

let[@inline] live t p = t.on && p >= 0 && p < Array.length t.doms

let[@inline] push d k t0 dur arg =
  let slot = d.count mod d.capacity in
  Array.unsafe_set d.ring_kind slot k;
  Array.unsafe_set d.ring_t0 slot t0;
  Array.unsafe_set d.ring_dur slot dur;
  Array.unsafe_set d.ring_arg slot arg;
  d.count <- d.count + 1

let begin_span t p k ~arg =
  if live t p then begin
    let d = t.doms.(p) in
    let i = d.depth in
    if i < max_depth then begin
      d.stk_kind.(i) <- kind_index k;
      d.stk_t0.(i) <- Mclock.now ();
      d.stk_arg.(i) <- arg
    end;
    d.depth <- i + 1
  end

let end_span t p =
  if live t p then begin
    let d = t.doms.(p) in
    let i = d.depth - 1 in
    if i >= 0 then begin
      d.depth <- i;
      if i < max_depth then
        let t0 = d.stk_t0.(i) in
        push d d.stk_kind.(i) t0 (Mclock.now () -. t0) d.stk_arg.(i)
    end
  end

let instant t p k ~arg =
  if live t p then push t.doms.(p) (kind_index k) (Mclock.now ()) 0.0 arg

let add t p c n =
  if live t p then begin
    let cs = t.doms.(p).counters in
    let i = cpad + counter_index c in
    cs.(i) <- cs.(i) + n
  end

let incr t p c = add t p c 1

let depth t p = if live t p then t.doms.(p).depth else 0

let unwind t p ~depth =
  if live t p then begin
    let d = t.doms.(p) in
    if depth >= 0 && depth < d.depth then d.depth <- depth
  end

let counters t p c =
  if live t p then t.doms.(p).counters.(cpad + counter_index c) else 0

(* ------------------------------------------------------------------ *)
(* Export                                                              *)
(* ------------------------------------------------------------------ *)

type event = { domain : int; kind : kind; t0 : float; dur : float; arg : int }

let fold_events t f acc =
  let acc = ref acc in
  Array.iteri
    (fun p d ->
      let held = min d.count d.capacity in
      let first = d.count - held in
      for i = first to d.count - 1 do
        let slot = i mod d.capacity in
        acc :=
          f !acc
            {
              domain = p;
              kind = kind_of_index.(d.ring_kind.(slot));
              t0 = d.ring_t0.(slot) -. t.origin;
              dur = d.ring_dur.(slot);
              arg = d.ring_arg.(slot);
            }
      done)
    t.doms;
  !acc

let events t = List.rev (fold_events t (fun acc e -> e :: acc) [])

let to_chrome_json t =
  let event e =
    Json.Obj
      [
        ("name", String (kind_name e.kind));
        ("cat", String "runtime");
        ("ph", String "X");
        ("ts", Float (e.t0 *. 1e6));
        ("dur", Float (e.dur *. 1e6));
        ("pid", Int 0);
        ("tid", Int e.domain);
        ("args", Obj [ ("arg", Int e.arg) ]);
      ]
  in
  Json.to_string
    (Obj
       [
         ("displayTimeUnit", String "ms");
         ("traceEvents", List (List.map event (events t)));
       ])
  ^ "\n"

type summary = {
  domains : int;
  events : int;
  dropped : int;
  tiles_run : int;
  steals : int;
  backoff_yields : int;
  elements_touched : int;
  faults_injected : int;
  faults_detected : int;
  busy_seconds : (string * float) list;
}

let summary t =
  let total c =
    Array.fold_left
      (fun acc d -> acc + d.counters.(cpad + counter_index c))
      0 t.doms
  in
  let busy = Array.make n_kinds 0.0 in
  ignore
    (fold_events t
       (fun () e -> busy.(kind_index e.kind) <- busy.(kind_index e.kind) +. e.dur)
       ());
  {
    domains = Array.length t.doms;
    events =
      Array.fold_left (fun acc d -> acc + min d.count d.capacity) 0 t.doms;
    dropped =
      Array.fold_left (fun acc d -> acc + max 0 (d.count - d.capacity)) 0 t.doms;
    tiles_run = total Tiles_run;
    steals = total Steals;
    backoff_yields = total Backoff_yields;
    elements_touched = total Elements_touched;
    faults_injected = total Faults_injected;
    faults_detected = total Faults_detected;
    busy_seconds =
      List.filter
        (fun (_, s) -> s > 0.0)
        (List.init n_kinds (fun k ->
             (kind_name kind_of_index.(k), busy.(k))));
  }

let pp_summary ppf s =
  Format.fprintf ppf "@[<v>=== trace metrics (%d domain%s) ===@," s.domains
    (if s.domains = 1 then "" else "s");
  Format.fprintf ppf "events: %d recorded%s@," s.events
    (if s.dropped = 0 then ""
     else Printf.sprintf " (%d dropped on ring overflow)" s.dropped);
  Format.fprintf ppf
    "tiles run: %d; steals: %d; backoff yields: %d; elements touched: %d@,"
    s.tiles_run s.steals s.backoff_yields s.elements_touched;
  Format.fprintf ppf "faults injected: %d; faults detected: %d@,"
    s.faults_injected s.faults_detected;
  List.iter
    (fun (k, sec) -> Format.fprintf ppf "busy %-9s %10.3f ms@," k (sec *. 1e3))
    s.busy_seconds;
  Format.fprintf ppf "@]"

let json_of_summary s =
  Json.Obj
    [
      ("domains", Int s.domains);
      ("events", Int s.events);
      ("dropped", Int s.dropped);
      ("tiles_run", Int s.tiles_run);
      ("steals", Int s.steals);
      ("backoff_yields", Int s.backoff_yields);
      ("elements_touched", Int s.elements_touched);
      ("faults_injected", Int s.faults_injected);
      ("faults_detected", Int s.faults_detected);
      ( "busy_seconds",
        Obj (List.map (fun (k, sec) -> (k, Json.Float sec)) s.busy_seconds) );
    ]
