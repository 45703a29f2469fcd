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

type loss = Lost_invalidation | Lost_eviction

type machine = {
  nprocs : int;
  caches : Cache.t array;
  dir : Directory.t;
  net : Mesh.t;
  stats : Stats.t;
  layout : Layout.t;
  line_size : int;
  placement : Data_partition.placement option;
  loss : (int, loss) Hashtbl.t array;  (* why proc p last lost line a *)
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

let mark_loss m p addr reason = Hashtbl.replace m.loss.(p) addr reason

let invalidate_sharers m addr ~except ~home =
  List.iter
    (fun q ->
      if q <> except then begin
        Cache.invalidate m.caches.(q) addr;
        m.stats.Stats.invalidations <- m.stats.Stats.invalidations + 1;
        mark_loss m q addr Lost_invalidation;
        message m home q;
        (* acknowledgement *)
        message m q home
      end)
    (Directory.sharers m.dir addr)

let handle_eviction m p = function
  | None -> ()
  | Some victim ->
      (* The victim is already gone from the cache; the directory still
         records whether it was dirty there. *)
      (if Directory.owner m.dir victim = Some p then begin
         m.stats.Stats.writebacks <- m.stats.Stats.writebacks + 1;
         message m p (home_of m victim)
       end);
      Directory.remove m.dir victim p;
      mark_loss m p victim Lost_eviction

let classify_miss m p addr =
  match Hashtbl.find_opt m.loss.(p) addr with
  | Some Lost_invalidation ->
      m.stats.Stats.coherence_misses <- m.stats.Stats.coherence_misses + 1
  | Some Lost_eviction ->
      m.stats.Stats.replacement_misses <- m.stats.Stats.replacement_misses + 1
  | None -> m.stats.Stats.cold_misses <- m.stats.Stats.cold_misses + 1

let fill_accounting m p home =
  if home = p then m.stats.Stats.local_fills <- m.stats.Stats.local_fills + 1
  else m.stats.Stats.remote_fills <- m.stats.Stats.remote_fills + 1

let access m p addr ~write ~sync =
  let st = m.stats in
  st.Stats.accesses <- st.Stats.accesses + 1;
  if write then st.Stats.writes <- st.Stats.writes + 1
  else st.Stats.reads <- st.Stats.reads + 1;
  if sync then st.Stats.sync_ops <- st.Stats.sync_ops + 1;
  Hashtbl.replace st.Stats.unique_per_proc.(p) addr ();
  let cache = m.caches.(p) in
  match Cache.lookup cache addr with
  | Some Cache.Modified -> st.Stats.hits <- st.Stats.hits + 1
  | Some Cache.Shared when not write -> st.Stats.hits <- st.Stats.hits + 1
  | Some Cache.Shared ->
      (* Write upgrade: no data transfer, but the directory must
         invalidate the other sharers. *)
      st.Stats.hits <- st.Stats.hits + 1;
      st.Stats.upgrades <- st.Stats.upgrades + 1;
      let home = home_of m addr in
      message m p home;
      invalidate_sharers m addr ~except:p ~home;
      Directory.set_owner m.dir addr p;
      Cache.set_state cache addr Cache.Modified;
      (* grant *)
      message m home p
  | None ->
      st.Stats.misses <- st.Stats.misses + 1;
      classify_miss m p addr;
      let home = home_of m addr in
      (* request *)
      message m p home;
      (match Directory.owner m.dir addr with
      | Some q when q <> p ->
          (* Dirty remotely: forward, owner writes back / transfers. *)
          message m home q;
          message m q p;
          st.Stats.writebacks <- st.Stats.writebacks + 1;
          if write then begin
            Cache.invalidate m.caches.(q) addr;
            st.Stats.invalidations <- st.Stats.invalidations + 1;
            mark_loss m q addr Lost_invalidation;
            Directory.clear m.dir addr
          end
          else begin
            Cache.set_state m.caches.(q) addr Cache.Shared;
            Directory.downgrade_owner m.dir addr
          end
      | Some _ | None ->
          if write then invalidate_sharers m addr ~except:p ~home;
          (* data reply *)
          message m home p);
      fill_accounting m p home;
      Hashtbl.remove m.loss.(p) addr;
      if write then begin
        Directory.set_owner m.dir addr p;
        handle_eviction m p (Cache.insert cache addr Cache.Modified)
      end
      else begin
        Directory.add_sharer m.dir addr p;
        handle_eviction m p (Cache.insert cache addr Cache.Shared)
      end

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
  if config.line_size < 1 then invalid_arg "Sim.run: line_size < 1";
  check_boxes nest per_proc;
  let net =
    match config.topology with
    | Uniform_memory -> Mesh.uniform ~nprocs
    | Mesh2d -> Mesh.mesh ~nprocs
  in
  let layout = Layout.of_nest ~line_align:config.line_size nest in
  let m =
    {
      nprocs;
      caches = Array.init nprocs (fun _ -> Cache.create config.geometry);
      dir = Directory.create ();
      net;
      stats = Stats.create ~nprocs;
      layout;
      line_size = config.line_size;
      placement = config.placement;
      loss = Array.init nprocs (fun _ -> Hashtbl.create 256);
    }
  in
  let steps =
    match config.seq_steps with
    | Some n -> n
    | None -> (
        match nest.Nest.seq with
        | Some l -> l.Nest.upper - l.Nest.lower + 1
        | None -> 1)
  in
  let body =
    Array.of_list
      (List.map
         (fun (r : Reference.t) ->
           ( Layout.compile layout r,
             Reference.is_write_like r,
             r.Reference.kind = Reference.Accumulate ))
         nest.Nest.body)
  in
  (* Distinct elements: one flag per layout element.  The coherence unit
     is the line holding the element. *)
  let seen = Bytes.make (Layout.total_elements layout) '\000' in
  let distinct = ref 0 in
  let execute p (iter : Matrixkit.Ivec.t) =
    Array.iter
      (fun ({ Layout.c; m = mk }, write, sync) ->
        let a = ref c in
        for k = 0 to Array.length mk - 1 do
          a := !a + (mk.(k) * iter.(k))
        done;
        let a = !a in
        if Bytes.get seen a = '\000' then begin
          Bytes.set seen a '\001';
          incr distinct
        end;
        access m p (a / config.line_size) ~write ~sync)
      body
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
  { stats = m.stats; distinct_total = !distinct; nprocs; steps }

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
