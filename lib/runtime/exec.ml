open Intmath
open Loopir
open Machine

type cref = Layout.cref = { c : int; m : int array }

type storage = float array

type compiled = {
  nest : Nest.t;
  layout : Layout.t;
  reads : cref array;
  writes : (cref * bool (* accumulate *)) array;
}

let compile ?bigarray:_ nest =
  let layout = Layout.of_nest nest in
  let reads, writes =
    List.partition_map
      (fun (r : Reference.t) ->
        let cr = Layout.compile layout r in
        if Reference.is_write_like r then
          Right (cr, r.Reference.kind = Reference.Accumulate)
        else Left cr)
      nest.Nest.body
  in
  {
    nest;
    layout;
    reads = Array.of_list reads;
    writes = Array.of_list writes;
  }

let nest c = c.nest
let total_elements c = Layout.total_elements c.layout
let reads c = c.reads
let writes c = c.writes

(* Deterministic nonzero initial operand values so checksums and value
   comparisons are meaningful from the first step. *)
let[@inline] init_value i = float_of_int ((i land 63) + 1) *. 0.125

(* A plain loop storing unboxed floats: [Array.init] would box each
   value on its way through the closure. *)
let reset (a : storage) =
  for i = 0 to Array.length a - 1 do
    Array.unsafe_set a i (init_value i)
  done

let alloc c =
  let a = Array.create_float (total_elements c) in
  reset a;
  a

(* A plain loop with an unboxed accumulator, in index order. *)
let checksum (a : storage) =
  let acc = ref 0.0 in
  for i = 0 to Array.length a - 1 do
    acc := !acc +. Array.unsafe_get a i
  done;
  !acc

(* [bits_of_float] is unboxed and [=] on [int64] is specialised, so the
   loop allocates nothing. *)
let same_bits (a : storage) (b : storage) =
  let n = Array.length a in
  let rec from i =
    i = n
    || Int64.bits_of_float (Array.unsafe_get a i)
       = Int64.bits_of_float (Array.unsafe_get b i)
       && from (i + 1)
  in
  n = Array.length b && from 0

let[@inline] addr (r : cref) (p : int array) =
  let a = ref r.c in
  let m = r.m in
  for k = 0 to Array.length m - 1 do
    a := !a + (Array.unsafe_get m k * Array.unsafe_get p k)
  done;
  !a

(* The loop body at one iteration point: load every read, combine, then
   store through every write-like reference. *)
let[@inline] exec c (data : storage) (p : int array) =
  let acc = ref 0.0 in
  let reads = c.reads in
  for i = 0 to Array.length reads - 1 do
    acc := !acc +. Array.unsafe_get data (addr (Array.unsafe_get reads i) p)
  done;
  let v = !acc +. 1.0 in
  let writes = c.writes in
  for i = 0 to Array.length writes - 1 do
    let r, accumulate = Array.unsafe_get writes i in
    let a = addr r p in
    if accumulate then
      Array.unsafe_set data a (Array.unsafe_get data a +. v)
    else Array.unsafe_set data a v
  done

let address c (r : Reference.t) = addr (Layout.compile c.layout r)

let plain_write_addresses c (p : int array) =
  Array.to_list c.writes
  |> List.filter_map (fun (r, accumulate) ->
         if accumulate then None else Some (addr r p))

type box = Partition.Codegen.box

let iter_box = Partition.Codegen.iter_box

let run_box c storage =
  let body p = exec c storage p in
  fun b -> iter_box b body

(* The least and greatest address [r] touches over a box.  [c + m . i]
   is linear, so each axis adds the smaller and the larger of its two
   end products independently. *)
let span (b : box) (r : cref) =
  let lo = ref r.c and hi = ref r.c in
  for k = 0 to Array.length r.m - 1 do
    let l, h = b.(k) in
    let a = r.m.(k) * l and z = r.m.(k) * h in
    lo := !lo + Int.min a z;
    hi := !hi + Int.max a z
  done;
  (!lo, !hi)

(* Tiles are idempotent - re-executable after a partial or duplicated
   run - iff no iteration of the Doall body reads an address the body
   writes (self- or cross-iteration) and no write accumulates.  Then
   every write's value is a function of never-written operands only, so
   re-running any subset of iterations in any order reproduces the same
   final buffer.

   A write can only clash with a read whose address span overlaps its
   own.  Layout frames are disjoint, so references to different arrays
   never overlap and most nests are settled by comparing spans.  Only
   the writes that meet some read's span are enumerated, and only the
   reads that meet one of those writes' spans are probed. *)
let reexecution_safe c =
  Array.for_all (fun (_, accumulate) -> not accumulate) c.writes
  &&
  let space = Nest.bounds c.nest in
  let overlap (lo, hi) (lo', hi') = lo <= hi' && lo' <= hi in
  let meets spans r = Array.exists (overlap (span space r)) spans in
  let read_spans = Array.map (span space) c.reads in
  match
    List.filter (meets read_spans) (Array.to_list (Array.map fst c.writes))
  with
  | [] -> true
  | writes -> (
      let write_spans = Array.of_list (List.map (span space) writes) in
      let reads = List.filter (meets write_spans) (Array.to_list c.reads) in
      let written = Bitset.create ~universe:(total_elements c) in
      iter_box space (fun p ->
          List.iter (fun r -> Bitset.add written (addr r p)) writes);
      let exception Clash in
      match
        iter_box space (fun p ->
            List.iter
              (fun r -> if Bitset.mem written (addr r p) then raise Clash)
              reads)
      with
      | () -> true
      | exception Clash -> false)

(* The instrumented body additionally records every element address in
   one of the domain's sets: the one for its reference's kind. *)
let observe_point c ~reads ~writes ~accumulates p =
  Array.iter (fun r -> Bitset.add reads (addr r p)) c.reads;
  Array.iter
    (fun (r, accumulate) ->
      Bitset.add (if accumulate then accumulates else writes) (addr r p))
    c.writes

type work = Partition.Scheduling.work =
  | Tiled of Partition.Scheduling.tiled
  | Dynamic of { space : box; chunk : remaining:int -> int }

let static_of_assignment (w : work) = w
let steps_of_nest = Nest.steps

(* One execution of the work ([steps] steps) through the shared loop.
   [box p] is domain [p]'s body for one box: a tile runs its boxes in
   order, a dynamic chunk the boxes its index range decodes to.  With
   [barriers], each step ends at one barrier whose last arriver resets
   the claim source; without, each domain runs its steps back to back
   (static work only: its source needs no reset). *)
let pass ~trace ~barriers pool work ~steps ~box ~seconds ~iterations =
  let tiles, ranges, source =
    match work with
    | Tiled { tiles; owners; steal } ->
        let source = Sched.tiles ~steal ~nprocs:(Pool.size pool) owners in
        (tiles, (fun () _ _ _ -> ()), source)
    | Dynamic { space; chunk } ->
        let source =
          Sched.shared ~total:(Partition.Codegen.box_volume space) ~chunk
        in
        ([||], (fun () -> Partition.Codegen.iter_range space), source)
  in
  Pool.run pool (fun me barrier ->
      let box = box me and range = ranges () in
      let sense = ref false and yielded = ref 0 and mine = ref 0 in
      let t0 = Mclock.now () in
      let run b =
        box b;
        mine := !mine + Partition.Codegen.box_volume b
      in
      let tile _step t = Array.iter run tiles.(t) in
      let chunk lo hi =
        range lo hi box;
        mine := !mine + (hi - lo)
      in
      let release () = Sched.reset source in
      let step_end _ = Pool.Barrier.arrive barrier ~sense ~yielded ~release in
      Sched.run ~trace source ~me ~steps ~tile ~chunk
        ~step_end:(if barriers then Some step_end else None);
      Trace.add trace me Trace.Backoff_yields !yielded;
      seconds.(me) <- Mclock.now () -. t0;
      iterations.(me) <- !mine)

type instrumented = {
  footprints : int array;
  iterations : int array;
  distinct_total : int;
  checksum : float;
  read_sets : Bitset.t array;
  write_sets : Bitset.t array;
  accumulate_sets : Bitset.t array;
}

let measure ?mode:_ pool c work ~steps =
  let nprocs = Pool.size pool in
  Partition.Scheduling.check c.nest ~nprocs work;
  let universe = total_elements c in
  let storage = alloc c in
  let sets () = Array.init nprocs (fun _ -> Bitset.create ~universe) in
  let read_sets = sets () and write_sets = sets () in
  let accumulate_sets = sets () in
  let seconds = Array.make nprocs 0.0 in
  let iterations = Array.make nprocs 0 in
  let visit p point =
    observe_point c ~reads:read_sets.(p) ~writes:write_sets.(p)
      ~accumulates:accumulate_sets.(p) point;
    exec c storage point
  in
  pass ~trace:Trace.disabled ~barriers:true pool work ~steps
    ~box:(fun p b -> iter_box b (visit p))
    ~seconds ~iterations;
  let s =
    Measure.sharing ~reads:read_sets ~writes:write_sets
      ~accumulates:accumulate_sets
  in
  {
    footprints = s.Measure.footprints;
    iterations;
    distinct_total = s.Measure.distinct;
    checksum = checksum storage;
    read_sets;
    write_sets;
    accumulate_sets;
  }

(* The fastest of [repeats] timed passes, and the buffer the last one
   left.  Every repeat runs on the one buffer.  Under [Reset_each] the
   buffer is reset to the initial operands before every repeat but the
   first.  Under [Reused] every repeat leaves the same buffer whatever it
   starts from, so there is nothing to reset. *)
let timed ~box ~trace ~barriers ~repeat_buffer pool c work ~steps ~repeats =
  let nprocs = Pool.size pool in
  let storage = alloc c in
  let best = ref (infinity, [||], [||]) in
  for rep = 1 to repeats do
    if repeat_buffer = Measure.Reset_each && rep > 1 then reset storage;
    let seconds = Array.make nprocs 0.0 in
    let iterations = Array.make nprocs 0 in
    let t0 = Mclock.now () in
    (* Each domain applies [box] on itself: a kernel body's cursors
       serve one domain. *)
    pass ~trace ~barriers pool work ~steps ~box:(fun _ -> box storage)
      ~seconds ~iterations;
    let wall = Mclock.now () -. t0 in
    let best_wall, _, _ = !best in
    if wall < best_wall then best := (wall, seconds, iterations)
  done;
  let wall, seconds, iterations = !best in
  (wall, seconds, iterations, storage)

(* Checked once, before any pass: the box bodies address operands
   unchecked. *)
let check_timed pool c work ~repeats =
  Partition.Scheduling.check c.nest ~nprocs:(Pool.size pool) work;
  if repeats < 1 then invalid_arg "Exec.run/Exec.time: repeats < 1"

let time_with ~box ~trace pool c work ~steps ~repeats =
  check_timed pool c work ~repeats;
  let wall, seconds, iterations, _ =
    timed ~box ~trace ~barriers:true ~repeat_buffer:Measure.Reset_each pool c
      work ~steps ~repeats
  in
  (wall, seconds, iterations)

let time ?(trace = Trace.disabled) pool c work ~steps ~repeats =
  time_with ~box:(run_box c) ~trace pool c work ~steps ~repeats

(* Static work - every tile on a fixed owner, no stealing - touches the
   same elements on every step: addresses depend on the Doall indices
   only, so each domain's cumulative footprint is its first step's.
   Work dealt at run time can move between domains from step to step,
   so it is observed for every step. *)
let static = function
  | Tiled { steal = false; _ } -> true
  | Tiled { steal = true; _ } | Dynamic _ -> false

let observed_steps work ~steps = if static work then min steps 1 else steps

(* What each domain's read, write and accumulate sets share after
   [steps] steps of the work, every box through [observe]: no operands,
   so no loads, stores or checksum. *)
let observed pool c work ~observe ~steps =
  let nprocs = Pool.size pool in
  let universe = total_elements c in
  let sets () = Array.init nprocs (fun _ -> Bitset.create ~universe) in
  let reads = sets () and writes = sets () and accumulates = sets () in
  pass ~trace:Trace.disabled ~barriers:true pool work ~steps
    ~box:(fun p ->
      observe ~reads:reads.(p) ~writes:writes.(p)
        ~accumulates:accumulates.(p))
    ~seconds:(Array.make nprocs 0.0) ~iterations:(Array.make nprocs 0);
  Measure.sharing ~reads ~writes ~accumulates

(* Static work touches the same elements every step, so when no element
   crosses domains in the observed step none crosses in any: each
   element is then accessed by one domain only, in the order it had
   with barriers, or only read, and the steps need no barrier.  When no
   element is both read and written and nothing accumulates, every
   write stores a value computed from operands no iteration writes:
   a repeat leaves the same buffer whatever it starts from, so the
   repeats need no reset. *)
let run ~trace ~box ~observe pool c work ~steps ~repeats =
  check_timed pool c work ~repeats;
  let { Measure.footprints; distinct; flow_in; crossing; read_written; _ } =
    observed pool c work ~observe ~steps:(observed_steps work ~steps)
  in
  let barriers =
    if static work && crossing = 0 then Measure.Barrier_free
    else Measure.Every_step crossing
  in
  let repeat_buffer =
    if read_written = 0 && Array.for_all (fun (_, acc) -> not acc) c.writes
    then Measure.Reused
    else Measure.Reset_each
  in
  let wall, seconds, iterations, operands =
    timed ~box ~trace
      ~barriers:(barriers <> Measure.Barrier_free)
      ~repeat_buffer pool c work ~steps ~repeats
  in
  (* The observing pass runs untraced (its cost is not the run's), but
     its footprints feed the bytes-touched counter: distinct elements
     each domain actually referenced. *)
  Array.iteri (fun p f -> Trace.add trace p Trace.Elements_touched f) footprints;
  {
    Measure.wall_seconds = wall;
    seconds;
    iterations;
    footprints;
    distinct_total = distinct;
    checksum = checksum operands;
    operands;
    flow_in;
    barriers;
    repeat_buffer;
  }

let sequential c ~steps =
  let storage = alloc c in
  let run = run_box c storage in
  let space = Nest.bounds c.nest in
  for _step = 1 to steps do
    run space
  done;
  storage
