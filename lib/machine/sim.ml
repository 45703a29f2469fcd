open Loopir
open Partition

type topology = Uniform_memory | Mesh2d

type config = {
  geometry : Cache.geometry;
  topology : topology;
  placement : Data_partition.placement option;
  seq_steps : int option;
  line_size : int;
}

let default =
  {
    geometry = Cache.Infinite;
    topology = Uniform_memory;
    placement = None;
    seq_steps = None;
    line_size = 1;
  }

type result = {
  stats : Stats.t;
  distinct_total : int;
  nprocs : int;
  steps : int;
}

type machine = {
  cache : Cache.t;
  net : Mesh.t;
  stats : Stats.t;
  layout : Layout.t;
  line_size : int;
  placement : Data_partition.placement option;
}

(* Home memory module of a line: the placement map's home of the line's
   first element when a placement is given, the single monolithic module
   otherwise (represented as [-1]).  Arrays are line-aligned, so a line's
   first element belongs to the array whose element was touched. *)
let home_of m line =
  match m.placement with
  | None -> -1
  | Some pl ->
      let name, coords = Layout.element_of m.layout (line * m.line_size) in
      pl.Data_partition.home name (Array.of_list coords)

let dist m a b =
  if a = -1 || b = -1 then if a = b then 0 else 1 else Mesh.distance m.net a b

let message m src dst =
  m.stats.Stats.network_messages <- m.stats.Stats.network_messages + 1;
  m.stats.Stats.network_hops <- m.stats.Stats.network_hops + dist m src dst

let invalidate m q line ~home =
  Cache.invalidate m.cache q line;
  m.stats.Stats.invalidations <- m.stats.Stats.invalidations + 1;
  message m home q;
  (* acknowledgement *)
  message m q home

let fill m p line state =
  match Cache.fill m.cache p line state with
  | Some (victim, Cache.Modified) ->
      m.stats.Stats.writebacks <- m.stats.Stats.writebacks + 1;
      message m p (home_of m victim)
  | Some _ | None -> ()

(* Write upgrade of a Shared line: no data transfer, but the directory
   must invalidate the other sharers. *)
let upgrade m p line =
  m.stats.Stats.upgrades <- m.stats.Stats.upgrades + 1;
  let home = home_of m line in
  message m p home;
  List.iter
    (fun q -> if q <> p then invalidate m q line ~home)
    (Cache.sharers m.cache line);
  Cache.set_state m.cache p line Cache.Modified;
  (* grant *)
  message m home p

let miss m p line ~write =
  let st = m.stats in
  st.Stats.misses <- st.Stats.misses + 1;
  let home = home_of m line in
  (* request *)
  message m p home;
  (match Cache.owner m.cache line with
  | Some q ->
      (* Dirty remotely: forward, owner writes back / transfers. *)
      message m home q;
      message m q p;
      st.Stats.writebacks <- st.Stats.writebacks + 1;
      if write then begin
        Cache.invalidate m.cache q line;
        st.Stats.invalidations <- st.Stats.invalidations + 1
      end
      else Cache.set_state m.cache q line Cache.Shared
  | None ->
      if write then
        List.iter
          (fun q -> invalidate m q line ~home)
          (Cache.sharers m.cache line);
      (* data reply *)
      message m home p);
  if home = p then st.Stats.local_fills <- st.Stats.local_fills + 1
  else st.Stats.remote_fills <- st.Stats.remote_fills + 1;
  fill m p line (if write then Cache.Modified else Cache.Shared)

let access m p line ~write ~sync =
  let st = m.stats in
  st.Stats.accesses <- st.Stats.accesses + 1;
  if write then st.Stats.writes <- st.Stats.writes + 1
  else st.Stats.reads <- st.Stats.reads + 1;
  if sync then st.Stats.sync_ops <- st.Stats.sync_ops + 1;
  match Cache.state m.cache p line with
  | (Cache.Shared | Cache.Modified) as held ->
      st.Stats.hits <- st.Stats.hits + 1;
      Cache.touch m.cache p line;
      if write && held = Cache.Shared then upgrade m p line
  | Cache.Never ->
      st.Stats.cold_misses <- st.Stats.cold_misses + 1;
      st.Stats.unique_per_proc.(p) <- st.Stats.unique_per_proc.(p) + 1;
      miss m p line ~write
  | Cache.Lost_invalidation ->
      st.Stats.coherence_misses <- st.Stats.coherence_misses + 1;
      miss m p line ~write
  | Cache.Lost_eviction ->
      st.Stats.replacement_misses <- st.Stats.replacement_misses + 1;
      miss m p line ~write

let machine nest ~nprocs (config : config) =
  if config.line_size < 1 then invalid_arg "Sim.run: line_size < 1";
  let layout = Layout.of_nest ~line_align:config.line_size nest in
  let lines =
    (Layout.total_elements layout + config.line_size - 1) / config.line_size
  in
  {
    cache = Cache.create config.geometry ~nprocs ~lines;
    net =
      (match config.topology with
      | Uniform_memory -> Mesh.uniform ~nprocs
      | Mesh2d -> Mesh.mesh ~nprocs);
    stats = Stats.create ~nprocs;
    layout;
    line_size = config.line_size;
    placement = config.placement;
  }

let cache m = m.cache
let stats m = m.stats

(* A processor's iterations one at a time: its boxes in order, each in
   lexicographic order.  [next ()] moves [point] to the next iteration
   (decoded from its position in the box), false once all are issued. *)
let cursor d (boxes : Codegen.box array) =
  let point = Array.make d 0 and at = ref 0 and pos = ref 0 in
  let rec next () =
    !at < Array.length boxes
    &&
    if !pos < Codegen.box_volume boxes.(!at) then begin
      let rest = ref !pos in
      for k = d - 1 downto 0 do
        let lo, hi = boxes.(!at).(k) in
        point.(k) <- lo + (!rest mod (hi - lo + 1));
        rest := !rest / (hi - lo + 1)
      done;
      incr pos;
      true
    end
    else begin
      incr at;
      pos := 0;
      next ()
    end
  in
  (point, next)

(* Compiled addresses check no bounds, so a point outside the iteration
   space would silently alias another element: refuse such boxes. *)
let check_boxes nest per_proc =
  let bounds = Nest.bounds nest in
  let inside (b : Codegen.box) =
    Codegen.box_volume b = 0
    || Array.length b = Array.length bounds
       && Array.for_all2
            (fun (lo, hi) (blo, bhi) -> blo <= lo && hi <= bhi)
            b bounds
  in
  if not (Array.for_all (Array.for_all inside) per_proc) then
    invalid_arg "Sim.run_assignment: box outside the iteration space"

let run_assignment nest ~(per_proc : Codegen.box array array)
    (config : config) =
  let nprocs = Array.length per_proc in
  if nprocs < 1 then invalid_arg "Sim.run_assignment: no processors";
  check_boxes nest per_proc;
  let steps = Nest.steps ?override:config.seq_steps nest in
  let m = machine nest ~nprocs config in
  let layout = m.layout in
  let body =
    Array.of_list
      (List.map
         (fun (r : Reference.t) ->
           ( Layout.compile layout r,
             Reference.is_write_like r,
             r.Reference.kind = Reference.Accumulate ))
         nest.Nest.body)
  in
  (* Distinct elements: one bit per layout element.  The coherence unit
     is the line holding the element. *)
  let seen = Intmath.Bitset.create ~universe:(Layout.total_elements layout) in
  let execute p (iter : Matrixkit.Ivec.t) =
    for r = 0 to Array.length body - 1 do
      let { Layout.c; m = mk }, write, sync = body.(r) in
      let a = ref c in
      for k = 0 to Array.length mk - 1 do
        a := !a + (mk.(k) * iter.(k))
      done;
      let a = !a in
      Intmath.Bitset.add seen a;
      access m p (a / config.line_size) ~write ~sync
    done
  in
  for _step = 1 to steps do
    let cursors = Array.map (cursor (Nest.nesting nest)) per_proc in
    let live = ref true in
    while !live do
      live := false;
      Array.iteri
        (fun p (point, next) ->
          if next () then begin
            live := true;
            execute p point
          end)
        cursors
    done
  done;
  {
    stats = m.stats;
    distinct_total = Intmath.Bitset.cardinal seen;
    nprocs;
    steps;
  }

let run (schedule : Codegen.schedule) config =
  run_assignment schedule.Codegen.nest
    ~per_proc:(Scheduling.of_schedule schedule)
    config

let footprints (r : result) = Stats.touched r.stats

let pp_result ppf (r : result) =
  Format.fprintf ppf
    "@[<v>%a@,distinct elements: %d@,per-proc footprints: [%s]@]" Stats.pp
    r.stats r.distinct_total
    (String.concat "; "
       (List.map string_of_int (Array.to_list (footprints r))))
