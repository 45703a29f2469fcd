open Loopir

type box = Exec.box

type shape = Stencil5 | Generic

let shape_name = function Stencil5 -> "stencil5" | Generic -> "generic"

(* [row x n ra wa] runs [n] points of the innermost axis from the
   running addresses [ra] (reads) and [wa] (writes), and leaves both
   arrays as it found them: [x] is the operand buffer for the executing
   rows and the touched set for the observing one. *)
type 'a row = 'a -> int -> int array -> int array -> unit

type plan = {
  compiled : Exec.compiled;
  reads : Exec.cref array;
  writes : (Exec.cref * bool) array;
  order : int array;  (** traversal order, outermost first *)
  reorderable : bool;
  shape : shape;
  rstep : int array array;
      (** [rstep.(k).(i)]: read [i]'s address delta along traversal axis [k] *)
  wstep : int array array;  (** the same for the writes *)
  row : Exec.storage row;
  observe_row : Measure.touched row;
}

let order p = Array.copy p.order
let reorderable p = p.reorderable
let shape p = shape_name p.shape

(* ------------------------------------------------------------------ *)
(* Traversal-order safety analysis                                     *)
(* ------------------------------------------------------------------ *)

(* Whether two references' address spans over the whole iteration space
   (so over any clipped tile box a fortiori) are disjoint. *)
let disjoint bounds r w =
  let lo, hi = Exec.span bounds r and lo', hi' = Exec.span bounds w in
  hi < lo' || hi' < lo

let same_map (r : Exec.cref) (w : Exec.cref) =
  r.Exec.c = w.Exec.c && r.Exec.m = w.Exec.m

(* Sufficient mixed-radix condition for the address map [i -> c + m.i]
   to be injective over the full iteration space (hence over any box):
   sorting the moving axes by |m_k|, each stride must exceed the total
   span the smaller axes can cover. *)
let injective_on_space (r : Exec.cref) (extents : int array) =
  let moving = ref [] in
  Array.iteri
    (fun k m -> if m <> 0 && extents.(k) > 1 then moving := (abs m, k) :: !moving)
    r.Exec.m;
  let axes = List.sort compare !moving in
  let ok = ref true in
  let span = ref 0 in
  List.iter
    (fun (m, k) ->
      if m <= !span then ok := false;
      span := !span + (m * (extents.(k) - 1)))
    axes;
  !ok

(* Axes the reference is constant along (and that actually move): the
   same-address fiber directions.  If more than one, permuting the loop
   order permutes the fiber visit order, which reorders floating-point
   read-modify-writes. *)
let fiber_axes (r : Exec.cref) (extents : int array) =
  let n = ref 0 in
  Array.iteri
    (fun k m -> if m = 0 && extents.(k) > 1 then incr n)
    r.Exec.m;
  !n

(* Reordering the tile traversal is bit-exact iff (conservatively):
   every write-like reference is injective over the moving axes and has
   at most one fiber axis (so read-modify-write chains per address run
   along a single loop axis, whose order any permutation preserves);
   every read either touches an address range disjoint from every write
   or is the write's own per-iteration location; and distinct writes
   don't alias each other except through the identical index map. *)
let analyze_reorderable reads writes bounds extents =
  Array.for_all
    (fun ((w : Exec.cref), _) ->
      injective_on_space w extents && fiber_axes w extents <= 1)
    writes
  && Array.for_all
       (fun (r : Exec.cref) ->
         Array.for_all
           (fun ((w : Exec.cref), _) ->
             same_map r w || disjoint bounds r w)
           writes)
       reads
  && Array.for_all
       (fun ((w1 : Exec.cref), _) ->
         Array.for_all
           (fun ((w2 : Exec.cref), _) ->
             w1 == w2 || same_map w1 w2 || disjoint bounds w1 w2)
           writes)
       writes

(* Innermost axis choice: the axis along which the most references move
   with unit address stride (row-major spatial locality), restricted to
   axes that actually iterate.  Ties keep the natural innermost axis. *)
let choose_order ~nesting ~reorderable reads writes extents =
  let default = Array.init nesting Fun.id in
  if (not reorderable) || nesting <= 1 then default
  else begin
    let score = Array.make nesting 0 in
    let count (r : Exec.cref) =
      Array.iteri
        (fun k m -> if abs m = 1 && extents.(k) > 1 then score.(k) <- score.(k) + 1)
        r.Exec.m
    in
    Array.iter count reads;
    Array.iter (fun (w, _) -> count w) writes;
    let best = ref (nesting - 1) in
    for k = nesting - 2 downto 0 do
      if score.(k) > score.(!best) then best := k
    done;
    if !best = nesting - 1 then default
    else begin
      let rest =
        Array.to_list default |> List.filter (fun k -> k <> !best)
      in
      Array.of_list (rest @ [ !best ])
    end
  end

let is_permutation o n =
  Array.length o = n
  &&
  let seen = Array.make n false in
  Array.for_all
    (fun k ->
      k >= 0 && k < n && not seen.(k) && (seen.(k) <- true; true))
    o

let detect_shape (reads : Exec.cref array) writes =
  match (Array.length reads, writes) with
  | 5, [| (_, false) |]
    when Array.for_all (fun (r : Exec.cref) -> r.Exec.m = reads.(0).Exec.m) reads
    ->
      (* Equal index maps let the five reads share one cursor with
         constant offsets - the defining property of a stencil. *)
      Stencil5
  | _ -> Generic

(* ------------------------------------------------------------------ *)
(* Box execution                                                       *)
(* ------------------------------------------------------------------ *)

(* The specialized inner loops.  Every variant advances the references'
   running addresses by their innermost-axis deltas - no per-iteration
   address recomputation - and must reproduce the interpreter's value
   semantics bit for bit: reads summed in body order, [+. 1.0], stores
   (or in-place adds) through every write in body order. *)

(* The five reads share one index map (shape precondition), so their
   mutual offsets are the differences of their [c]: one bumped cursor
   and four fixed displacements replace five address streams. *)
let inner_stencil5 (data : Exec.storage) ~n ~d ~dw ~o1 ~o2 ~o3 ~o4 b0 w0 =
  let b = ref b0 and w = ref w0 in
  for _ = 1 to n do
    let base = !b in
    Array.unsafe_set data !w
      (Array.unsafe_get data base
      +. Array.unsafe_get data (base + o1)
      +. Array.unsafe_get data (base + o2)
      +. Array.unsafe_get data (base + o3)
      +. Array.unsafe_get data (base + o4)
      +. 1.0);
    b := base + d;
    w := !w + dw
  done

(* Store or accumulate [v] at [a]; inlined, so a constant [is_acc]
   leaves only one of the two. *)
let[@inline] store ~is_acc (data : Exec.storage) a v =
  if is_acc then Array.unsafe_set data a (Array.unsafe_get data a +. v)
  else Array.unsafe_set data a v

(* Move running addresses [n] steps along [delta]. *)
let bump (a : int array) (delta : int array) n =
  for i = 0 to Array.length a - 1 do
    a.(i) <- a.(i) + (n * delta.(i))
  done

(* Generic fallback: cursors bumped in place in their arrays, then
   rewound - one add per reference per iteration, against the
   interpreter's O(nesting) multiply-add per reference.  The bump is
   fused into the read-sum pass (one sweep over the cursor array per
   iteration, not two), and the overwhelmingly common single-write
   body gets its own variant with the accumulate dispatch and the write
   cursor hoisted out of the array. *)
let inner_generic1 (data : Exec.storage) ~n ~nr ~(rd : int array) ~dw
    ~is_acc (ra : int array) w0 =
  let w = ref w0 in
  for _ = 1 to n do
    let s = ref 0.0 in
    for i = 0 to nr - 1 do
      let a = Array.unsafe_get ra i in
      s := !s +. Array.unsafe_get data a;
      Array.unsafe_set ra i (a + Array.unsafe_get rd i)
    done;
    let v = !s +. 1.0 in
    store ~is_acc data !w v;
    w := !w + dw
  done;
  bump ra rd (-n)

(* Arity-unrolled single-write variants: same shape-agnostic bumped
   cursors, but held in registers instead of the cursor array once the
   read count is known.  Kills the per-read loop control and the cursor
   array traffic, which dominate [inner_generic1] for short bodies.
   {!unrolled} inlines each one per store kind. *)
let[@inline] inner_gen1 (data : Exec.storage) ~n ~(rd : int array) ~dw ~is_acc
    (ra : int array) w0 =
  let r0 = ref ra.(0) and w = ref w0 in
  let d0 = rd.(0) in
  for _ = 1 to n do
    let v = Array.unsafe_get data !r0 +. 1.0 in
    store ~is_acc data !w v;
    r0 := !r0 + d0;
    w := !w + dw
  done

let[@inline] inner_gen2 (data : Exec.storage) ~n ~(rd : int array) ~dw ~is_acc
    (ra : int array) w0 =
  let r0 = ref ra.(0) and r1 = ref ra.(1) and w = ref w0 in
  let d0 = rd.(0) and d1 = rd.(1) in
  for _ = 1 to n do
    let v = Array.unsafe_get data !r0 +. Array.unsafe_get data !r1 +. 1.0 in
    store ~is_acc data !w v;
    r0 := !r0 + d0;
    r1 := !r1 + d1;
    w := !w + dw
  done

let[@inline] inner_gen3 (data : Exec.storage) ~n ~(rd : int array) ~dw ~is_acc
    (ra : int array) w0 =
  let r0 = ref ra.(0) and r1 = ref ra.(1) and r2 = ref ra.(2) and w = ref w0 in
  let d0 = rd.(0) and d1 = rd.(1) and d2 = rd.(2) in
  for _ = 1 to n do
    let v =
      Array.unsafe_get data !r0 +. Array.unsafe_get data !r1
      +. Array.unsafe_get data !r2 +. 1.0
    in
    store ~is_acc data !w v;
    r0 := !r0 + d0;
    r1 := !r1 + d1;
    r2 := !r2 + d2;
    w := !w + dw
  done

let[@inline] inner_gen4 (data : Exec.storage) ~n ~(rd : int array) ~dw ~is_acc
    (ra : int array) w0 =
  let r0 = ref ra.(0)
  and r1 = ref ra.(1)
  and r2 = ref ra.(2)
  and r3 = ref ra.(3)
  and w = ref w0 in
  let d0 = rd.(0) and d1 = rd.(1) and d2 = rd.(2) and d3 = rd.(3) in
  for _ = 1 to n do
    let v =
      Array.unsafe_get data !r0 +. Array.unsafe_get data !r1
      +. Array.unsafe_get data !r2 +. Array.unsafe_get data !r3 +. 1.0
    in
    store ~is_acc data !w v;
    r0 := !r0 + d0;
    r1 := !r1 + d1;
    r2 := !r2 + d2;
    r3 := !r3 + d3;
    w := !w + dw
  done

let[@inline] inner_gen5 (data : Exec.storage) ~n ~(rd : int array) ~dw ~is_acc
    (ra : int array) w0 =
  let r0 = ref ra.(0)
  and r1 = ref ra.(1)
  and r2 = ref ra.(2)
  and r3 = ref ra.(3)
  and r4 = ref ra.(4)
  and w = ref w0 in
  let d0 = rd.(0) and d1 = rd.(1) and d2 = rd.(2) and d3 = rd.(3) and d4 = rd.(4) in
  for _ = 1 to n do
    let v =
      Array.unsafe_get data !r0 +. Array.unsafe_get data !r1
      +. Array.unsafe_get data !r2 +. Array.unsafe_get data !r3
      +. Array.unsafe_get data !r4 +. 1.0
    in
    store ~is_acc data !w v;
    r0 := !r0 + d0;
    r1 := !r1 + d1;
    r2 := !r2 + d2;
    r3 := !r3 + d3;
    r4 := !r4 + d4;
    w := !w + dw
  done

(* Each unrolled loop inlined twice, so the accumulate test folds away:
   left inside the loop it cost matmul about 20% (2-core x86-64). *)
let unrolled ~nr ~is_acc ~rd ~dw : Exec.storage row option =
  let pick acc set = Some (if is_acc then acc else set) in
  match nr with
  | 1 ->
      pick
        (fun d n ra wa -> inner_gen1 ~is_acc:true d ~n ~rd ~dw ra wa.(0))
        (fun d n ra wa -> inner_gen1 ~is_acc:false d ~n ~rd ~dw ra wa.(0))
  | 2 ->
      pick
        (fun d n ra wa -> inner_gen2 ~is_acc:true d ~n ~rd ~dw ra wa.(0))
        (fun d n ra wa -> inner_gen2 ~is_acc:false d ~n ~rd ~dw ra wa.(0))
  | 3 ->
      pick
        (fun d n ra wa -> inner_gen3 ~is_acc:true d ~n ~rd ~dw ra wa.(0))
        (fun d n ra wa -> inner_gen3 ~is_acc:false d ~n ~rd ~dw ra wa.(0))
  | 4 ->
      pick
        (fun d n ra wa -> inner_gen4 ~is_acc:true d ~n ~rd ~dw ra wa.(0))
        (fun d n ra wa -> inner_gen4 ~is_acc:false d ~n ~rd ~dw ra wa.(0))
  | 5 ->
      pick
        (fun d n ra wa -> inner_gen5 ~is_acc:true d ~n ~rd ~dw ra wa.(0))
        (fun d n ra wa -> inner_gen5 ~is_acc:false d ~n ~rd ~dw ra wa.(0))
  | _ -> None

let inner_generic (data : Exec.storage) ~n ~nr ~nw ~(rd : int array)
    ~(wd : int array) ~(acc : bool array) (ra : int array) (wa : int array) =
  for _ = 1 to n do
    let s = ref 0.0 in
    for i = 0 to nr - 1 do
      let a = Array.unsafe_get ra i in
      s := !s +. Array.unsafe_get data a;
      Array.unsafe_set ra i (a + Array.unsafe_get rd i)
    done;
    let v = !s +. 1.0 in
    for i = 0 to nw - 1 do
      let a = Array.unsafe_get wa i in
      store ~is_acc:(Array.unsafe_get acc i) data a v;
      Array.unsafe_set wa i (a + Array.unsafe_get wd i)
    done
  done;
  bump ra rd (-n);
  bump wa wd (-n)

(* The innermost loop for a shape, from the innermost deltas [rd] and
   [wd]. *)
let row_of shape (reads : Exec.cref array) writes ~rd ~wd : Exec.storage row =
  let nr = Array.length reads and nw = Array.length writes in
  match shape with
  | Stencil5 ->
      let d = rd.(0) and dw = wd.(0) in
      let off i = reads.(i).Exec.c - reads.(0).Exec.c in
      let o1 = off 1 and o2 = off 2 and o3 = off 3 and o4 = off 4 in
      fun data n ra wa ->
        inner_stencil5 data ~n ~d ~dw ~o1 ~o2 ~o3 ~o4 ra.(0) wa.(0)
  | Generic when nw = 1 -> (
      let dw = wd.(0) and is_acc = snd writes.(0) in
      match unrolled ~nr ~is_acc ~rd ~dw with
      | Some row -> row
      | None ->
          fun data n ra wa ->
            inner_generic1 data ~n ~nr ~rd ~dw ~is_acc ra wa.(0))
  | Generic ->
      let acc = Array.map snd writes in
      fun data n ra wa -> inner_generic data ~n ~nr ~nw ~rd ~wd ~acc ra wa

(* The observing row: the bit of every address each reference's cursor
   passes over the [n] points, and no load or store. *)
let observe_row ~(rd : int array) ~(wd : int array) : Measure.touched row =
  let touch_run touched n (a : int array) (delta : int array) =
    for i = 0 to Array.length a - 1 do
      let a0 = Array.unsafe_get a i and d = Array.unsafe_get delta i in
      for j = 0 to n - 1 do
        Measure.touch touched (a0 + (j * d))
      done
    done
  in
  fun touched n ra wa ->
    touch_run touched n ra rd;
    touch_run touched n wa wd

let plan ?(force_generic = false) ?order compiled =
  let nest = Exec.nest compiled in
  let nesting = Nest.nesting nest in
  let bounds = Nest.bounds nest in
  let extents = Nest.extents nest in
  let reads = Exec.reads compiled in
  let writes = Exec.writes compiled in
  let reorderable = analyze_reorderable reads writes bounds extents in
  let order =
    match order with
    | Some o ->
        if not (is_permutation o nesting) then
          invalid_arg "Kernel.plan: order is not a permutation of the axes";
        Array.copy o
    | None -> choose_order ~nesting ~reorderable reads writes extents
  in
  let shape = if force_generic then Generic else detect_shape reads writes in
  (* Per-reference deltas permuted into traversal order, once per plan:
     a box then costs only its two cursor arrays. *)
  let along crefs =
    Array.map (fun k -> Array.map (fun (r : Exec.cref) -> r.m.(k)) crefs) order
  in
  let rstep = along reads and wstep = along (Array.map fst writes) in
  let rd = rstep.(nesting - 1) and wd = wstep.(nesting - 1) in
  let row = row_of shape reads writes ~rd ~wd in
  let observe_row = observe_row ~rd ~wd in
  { compiled; reads; writes; order; reorderable; shape; rstep; wstep; row;
    observe_row }

(* Per-axis address delta of each body reference, in original axis
   order: exactly the [m] vector of the compiled reference. *)
let strides p =
  let reads = Queue.of_seq (Array.to_seq p.reads)
  and writes = Queue.of_seq (Array.to_seq (Array.map fst p.writes)) in
  List.map
    (fun (r : Reference.t) ->
      let q = if Reference.is_write_like r then writes else reads in
      (r, Array.copy (Queue.pop q).Exec.m))
    (Exec.nest p.compiled).Nest.body

let start (r : Exec.cref) (b : box) =
  let a = ref r.Exec.c in
  for k = 0 to Array.length b - 1 do
    a := !a + (r.Exec.m.(k) * fst b.(k))
  done;
  !a

(* Traversal axes [k ..] of the box: each outer axis advances the
   cursors before every point but its first and rewinds them after its
   last, so every level leaves them as it found them.  An empty axis
   runs nothing; an empty innermost one gives rows of [n <= 0].  [row]
   and [x] travel as two arguments, not one partial application, so a
   box allocates nothing beyond its cursors. *)
let rec walk p (row : 'a row) (x : 'a) (b : box) n ra wa k =
  if k = Array.length p.order - 1 then row x n ra wa
  else begin
    let lo, hi = b.(p.order.(k)) in
    let rs = p.rstep.(k) and ws = p.wstep.(k) in
    for j = lo to hi do
      if j > lo then begin
        bump ra rs 1;
        bump wa ws 1
      end;
      walk p row x b n ra wa (k + 1)
    done;
    if hi > lo then begin
      bump ra rs (lo - hi);
      bump wa ws (lo - hi)
    end
  end

(* Seed one cursor per reference at the box corner and walk the box in
   traversal order, running [row x] on every innermost row. *)
let traverse p (row : 'a row) (x : 'a) (b : box) =
  let d = Array.length p.order in
  if Array.length b <> d then invalid_arg "Kernel: box arity mismatch";
  let nr = Array.length p.reads and nw = Array.length p.writes in
  let ra = Array.make nr 0 and wa = Array.make nw 0 in
  for i = 0 to nr - 1 do
    ra.(i) <- start p.reads.(i) b
  done;
  for i = 0 to nw - 1 do
    wa.(i) <- start (fst p.writes.(i)) b
  done;
  let lo, hi = b.(p.order.(d - 1)) in
  walk p row x b (hi - lo + 1) ra wa 0

let run_box p (data : Exec.storage) (b : box) = traverse p p.row data b

let observe p (touched : Measure.touched) (b : box) =
  traverse p p.observe_row touched b

(* ------------------------------------------------------------------ *)
(* Schedules and parallel execution                                    *)
(* ------------------------------------------------------------------ *)

let boxes_of_schedule = Partition.Scheduling.of_schedule

let time ?(trace = Trace.disabled) pool p ~boxes ~steps ~repeats =
  Exec.time_with ~box:(run_box p) ~trace pool p.compiled
    (Exec.static_of_assignment boxes) ~steps ~repeats

let sequential p ~steps =
  let storage = Exec.alloc p.compiled in
  let whole = Nest.bounds (Exec.nest p.compiled) in
  for _step = 1 to steps do
    run_box p storage whole
  done;
  storage
