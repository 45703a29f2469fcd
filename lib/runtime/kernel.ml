open Intmath
open Loopir

type box = Exec.box

(* [row x n ra wa] runs [n] points of the innermost axis from the
   running addresses [ra] (reads) and [wa] (writes), and leaves both
   arrays as it found them: [x] is the operand buffer for the executing
   rows and the touched sets for the observing one. *)
type 'a row = 'a -> int -> int array -> int array -> unit

type plan = {
  compiled : Exec.compiled;
  reads : Exec.cref array;
  writes : (Exec.cref * bool) array;
  order : int array;  (** traversal order, outermost first *)
  reorderable : bool;
  unit : bool;  (** the row runs an unrolled loop with literal [+ 1] bumps *)
  rstep : int array array;
      (** [rstep.(k).(i)]: read [i]'s address delta along traversal axis [k] *)
  wstep : int array array;  (** the same for the writes *)
  row : Exec.storage row;
  observe_row : (Bitset.t * Bitset.t * Bitset.t) row;
}

let order p = Array.copy p.order
let reorderable p = p.reorderable
let shape p = if p.unit then "unit-stride" else "generic"

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

(* ------------------------------------------------------------------ *)
(* Box execution                                                       *)
(* ------------------------------------------------------------------ *)

(* The specialized inner loops.  Every variant advances the references'
   running addresses by their innermost-axis deltas - no per-iteration
   address recomputation - and must reproduce the interpreter's value
   semantics bit for bit: reads summed in body order, [+. 1.0], stores
   (or in-place adds) through every write in body order. *)

(* Store or accumulate [v] at [a]; inlined, so a constant [is_acc]
   leaves only one of the two. *)
let[@inline] store ~is_acc (data : Exec.storage) a v =
  if is_acc then Array.unsafe_set data a (Array.unsafe_get data a +. v)
  else Array.unsafe_set data a v

(* Advance a cursor by its delta [d], or by a literal 1 on a unit-stride
   row; [adv2] by two steps.  The test must sit here, at the use: bound
   once outside the loop ([let d = if unit then 1 else ...]) the
   constant lands in a register and is spilled like any other delta. *)
let[@inline] adv ~unit x d = if unit then x + 1 else x + d
let[@inline] adv2 ~unit x d = if unit then x + 2 else x + d + d

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

(* Arity-unrolled single-write variants: the cursors held in locals
   instead of the cursor array once the read count is known, which kills
   the per-read loop control and the cursor array traffic that dominate
   [inner_generic1] for short bodies.  {!unrolled} inlines each one per
   store kind and per [unit]: with literal bumps every cursor stays in a
   register, while the strided arities 4 and 5 run out of registers and
   keep cursors and deltas on the stack.  Each trip runs two points, then
   an odd row one more ([n <= 0] runs none).  The second point's
   addresses sit in its loads' indices, [adv] of cursors bound immutably
   at the trip's start, so on a unit row its [+ 1] folds into the load
   displacement: a mutable cursor, or an address passed through a
   helper's arguments, is first copied to a register.  Its loads follow
   the first point's store, which an in-place row or an accumulate with
   [dw = 0] reads back. *)
let[@inline] inner_gen1 (data : Exec.storage) ~n ~(rd : int array) ~dw ~is_acc
    ~unit (ra : int array) (wa : int array) =
  let r0 = ref (Array.unsafe_get ra 0) and w = ref (Array.unsafe_get wa 0) in
  let d0 = Array.unsafe_get rd 0 in
  for _ = 1 to n asr 1 do
    let a0 = !r0 and a = !w in
    store ~is_acc data a (Array.unsafe_get data a0 +. 1.0);
    store ~is_acc data (adv ~unit a dw)
      (Array.unsafe_get data (adv ~unit a0 d0) +. 1.0);
    r0 := adv2 ~unit a0 d0;
    w := adv2 ~unit a dw
  done;
  if n > 0 && n land 1 = 1 then
    store ~is_acc data !w (Array.unsafe_get data !r0 +. 1.0)

let[@inline] inner_gen2 (data : Exec.storage) ~n ~(rd : int array) ~dw ~is_acc
    ~unit (ra : int array) (wa : int array) =
  let r0 = ref (Array.unsafe_get ra 0) and r1 = ref (Array.unsafe_get ra 1) in
  let w = ref (Array.unsafe_get wa 0) in
  let d0 = Array.unsafe_get rd 0 and d1 = Array.unsafe_get rd 1 in
  for _ = 1 to n asr 1 do
    let a0 = !r0 and a1 = !r1 and a = !w in
    store ~is_acc data a
      (Array.unsafe_get data a0 +. Array.unsafe_get data a1 +. 1.0);
    store ~is_acc data (adv ~unit a dw)
      (Array.unsafe_get data (adv ~unit a0 d0)
      +. Array.unsafe_get data (adv ~unit a1 d1) +. 1.0);
    r0 := adv2 ~unit a0 d0;
    r1 := adv2 ~unit a1 d1;
    w := adv2 ~unit a dw
  done;
  if n > 0 && n land 1 = 1 then
    store ~is_acc data !w
      (Array.unsafe_get data !r0 +. Array.unsafe_get data !r1 +. 1.0)

let[@inline] inner_gen3 (data : Exec.storage) ~n ~(rd : int array) ~dw ~is_acc
    ~unit (ra : int array) (wa : int array) =
  let r0 = ref (Array.unsafe_get ra 0) and r1 = ref (Array.unsafe_get ra 1) in
  let r2 = ref (Array.unsafe_get ra 2) and w = ref (Array.unsafe_get wa 0) in
  let d0 = Array.unsafe_get rd 0 and d1 = Array.unsafe_get rd 1 in
  let d2 = Array.unsafe_get rd 2 in
  for _ = 1 to n asr 1 do
    let a0 = !r0 and a1 = !r1 and a2 = !r2 and a = !w in
    store ~is_acc data a
      (Array.unsafe_get data a0 +. Array.unsafe_get data a1
      +. Array.unsafe_get data a2 +. 1.0);
    store ~is_acc data (adv ~unit a dw)
      (Array.unsafe_get data (adv ~unit a0 d0)
      +. Array.unsafe_get data (adv ~unit a1 d1)
      +. Array.unsafe_get data (adv ~unit a2 d2) +. 1.0);
    r0 := adv2 ~unit a0 d0;
    r1 := adv2 ~unit a1 d1;
    r2 := adv2 ~unit a2 d2;
    w := adv2 ~unit a dw
  done;
  if n > 0 && n land 1 = 1 then
    store ~is_acc data !w
      (Array.unsafe_get data !r0 +. Array.unsafe_get data !r1
      +. Array.unsafe_get data !r2 +. 1.0)

let[@inline] inner_gen4 (data : Exec.storage) ~n ~(rd : int array) ~dw ~is_acc
    ~unit (ra : int array) (wa : int array) =
  let r0 = ref (Array.unsafe_get ra 0) and r1 = ref (Array.unsafe_get ra 1) in
  let r2 = ref (Array.unsafe_get ra 2) and r3 = ref (Array.unsafe_get ra 3) in
  let w = ref (Array.unsafe_get wa 0) in
  let d0 = Array.unsafe_get rd 0 and d1 = Array.unsafe_get rd 1 in
  let d2 = Array.unsafe_get rd 2 and d3 = Array.unsafe_get rd 3 in
  for _ = 1 to n asr 1 do
    let a0 = !r0 and a1 = !r1 and a2 = !r2 and a3 = !r3 and a = !w in
    store ~is_acc data a
      (Array.unsafe_get data a0 +. Array.unsafe_get data a1
      +. Array.unsafe_get data a2 +. Array.unsafe_get data a3 +. 1.0);
    store ~is_acc data (adv ~unit a dw)
      (Array.unsafe_get data (adv ~unit a0 d0)
      +. Array.unsafe_get data (adv ~unit a1 d1)
      +. Array.unsafe_get data (adv ~unit a2 d2)
      +. Array.unsafe_get data (adv ~unit a3 d3) +. 1.0);
    r0 := adv2 ~unit a0 d0;
    r1 := adv2 ~unit a1 d1;
    r2 := adv2 ~unit a2 d2;
    r3 := adv2 ~unit a3 d3;
    w := adv2 ~unit a dw
  done;
  if n > 0 && n land 1 = 1 then
    store ~is_acc data !w
      (Array.unsafe_get data !r0 +. Array.unsafe_get data !r1
      +. Array.unsafe_get data !r2 +. Array.unsafe_get data !r3 +. 1.0)

let[@inline] inner_gen5 (data : Exec.storage) ~n ~(rd : int array) ~dw ~is_acc
    ~unit (ra : int array) (wa : int array) =
  let r0 = ref (Array.unsafe_get ra 0) and r1 = ref (Array.unsafe_get ra 1) in
  let r2 = ref (Array.unsafe_get ra 2) and r3 = ref (Array.unsafe_get ra 3) in
  let r4 = ref (Array.unsafe_get ra 4) and w = ref (Array.unsafe_get wa 0) in
  let d0 = Array.unsafe_get rd 0 and d1 = Array.unsafe_get rd 1 in
  let d2 = Array.unsafe_get rd 2 and d3 = Array.unsafe_get rd 3 in
  let d4 = Array.unsafe_get rd 4 in
  for _ = 1 to n asr 1 do
    let a0 = !r0 and a1 = !r1 and a2 = !r2 and a3 = !r3 and a4 = !r4 and a = !w in
    store ~is_acc data a
      (Array.unsafe_get data a0 +. Array.unsafe_get data a1
      +. Array.unsafe_get data a2 +. Array.unsafe_get data a3
      +. Array.unsafe_get data a4 +. 1.0);
    store ~is_acc data (adv ~unit a dw)
      (Array.unsafe_get data (adv ~unit a0 d0)
      +. Array.unsafe_get data (adv ~unit a1 d1)
      +. Array.unsafe_get data (adv ~unit a2 d2)
      +. Array.unsafe_get data (adv ~unit a3 d3)
      +. Array.unsafe_get data (adv ~unit a4 d4) +. 1.0);
    r0 := adv2 ~unit a0 d0;
    r1 := adv2 ~unit a1 d1;
    r2 := adv2 ~unit a2 d2;
    r3 := adv2 ~unit a3 d3;
    r4 := adv2 ~unit a4 d4;
    w := adv2 ~unit a dw
  done;
  if n > 0 && n land 1 = 1 then
    store ~is_acc data !w
      (Array.unsafe_get data !r0 +. Array.unsafe_get data !r1
      +. Array.unsafe_get data !r2 +. Array.unsafe_get data !r3
      +. Array.unsafe_get data !r4 +. 1.0)

(* Each unrolled loop inlined four times, so the accumulate and unit
   tests fold away: the accumulate test left inside the loop cost matmul
   about 20% (2-core x86-64). *)
let unrolled ~nr ~is_acc ~unit ~rd ~dw : Exec.storage row option =
  let pick acc_unit acc set_unit set =
    Some
      (match (is_acc, unit) with
      | true, true -> acc_unit
      | true, false -> acc
      | false, true -> set_unit
      | false, false -> set)
  in
  match nr with
  | 1 ->
      pick
        (fun x n r w -> inner_gen1 ~is_acc:true ~unit:true x ~n ~rd ~dw r w)
        (fun x n r w -> inner_gen1 ~is_acc:true ~unit:false x ~n ~rd ~dw r w)
        (fun x n r w -> inner_gen1 ~is_acc:false ~unit:true x ~n ~rd ~dw r w)
        (fun x n r w -> inner_gen1 ~is_acc:false ~unit:false x ~n ~rd ~dw r w)
  | 2 ->
      pick
        (fun x n r w -> inner_gen2 ~is_acc:true ~unit:true x ~n ~rd ~dw r w)
        (fun x n r w -> inner_gen2 ~is_acc:true ~unit:false x ~n ~rd ~dw r w)
        (fun x n r w -> inner_gen2 ~is_acc:false ~unit:true x ~n ~rd ~dw r w)
        (fun x n r w -> inner_gen2 ~is_acc:false ~unit:false x ~n ~rd ~dw r w)
  | 3 ->
      pick
        (fun x n r w -> inner_gen3 ~is_acc:true ~unit:true x ~n ~rd ~dw r w)
        (fun x n r w -> inner_gen3 ~is_acc:true ~unit:false x ~n ~rd ~dw r w)
        (fun x n r w -> inner_gen3 ~is_acc:false ~unit:true x ~n ~rd ~dw r w)
        (fun x n r w -> inner_gen3 ~is_acc:false ~unit:false x ~n ~rd ~dw r w)
  | 4 ->
      pick
        (fun x n r w -> inner_gen4 ~is_acc:true ~unit:true x ~n ~rd ~dw r w)
        (fun x n r w -> inner_gen4 ~is_acc:true ~unit:false x ~n ~rd ~dw r w)
        (fun x n r w -> inner_gen4 ~is_acc:false ~unit:true x ~n ~rd ~dw r w)
        (fun x n r w -> inner_gen4 ~is_acc:false ~unit:false x ~n ~rd ~dw r w)
  | 5 ->
      pick
        (fun x n r w -> inner_gen5 ~is_acc:true ~unit:true x ~n ~rd ~dw r w)
        (fun x n r w -> inner_gen5 ~is_acc:true ~unit:false x ~n ~rd ~dw r w)
        (fun x n r w -> inner_gen5 ~is_acc:false ~unit:true x ~n ~rd ~dw r w)
        (fun x n r w -> inner_gen5 ~is_acc:false ~unit:false x ~n ~rd ~dw r w)
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

(* Whether a row takes the unit-stride loop: a single write and 1 to 5
   reads (an unrolled arity), every one advancing by exactly +1 along
   the innermost axis. *)
let unit_stride ~rd ~wd =
  let nr = Array.length rd in
  Array.length wd = 1 && nr >= 1 && nr <= 5
  && Array.for_all (fun d -> d = 1) rd
  && wd.(0) = 1

(* The innermost loop from the innermost deltas [rd] and [wd]. *)
let row_of ~unit writes ~rd ~wd : Exec.storage row =
  let nr = Array.length rd and nw = Array.length wd in
  if nw = 1 then
    let dw = wd.(0) and is_acc = snd writes.(0) in
    match unrolled ~nr ~is_acc ~unit ~rd ~dw with
    | Some row -> row
    | None ->
        fun data n ra wa -> inner_generic1 data ~n ~nr ~rd ~dw ~is_acc ra wa.(0)
  else
    let acc = Array.map snd writes in
    fun data n ra wa -> inner_generic data ~n ~nr ~nw ~rd ~wd ~acc ra wa

(* The observing row: the run of addresses each reference's cursor
   passes over the [n] points, in the read, write or accumulate set by
   the reference's kind, and no load or store.  One [Bitset.add_run]
   per reference, not one [add] per point. *)
let observe_row ~(rd : int array) ~(wd : int array) ~(acc : bool array) :
    (Bitset.t * Bitset.t * Bitset.t) row =
 fun (reads, writes, accumulates) n ra wa ->
  for i = 0 to Array.length ra - 1 do
    Bitset.add_run reads (Array.unsafe_get ra i)
      ~stride:(Array.unsafe_get rd i) ~count:n
  done;
  for i = 0 to Array.length wa - 1 do
    Bitset.add_run
      (if Array.unsafe_get acc i then accumulates else writes)
      (Array.unsafe_get wa i) ~stride:(Array.unsafe_get wd i) ~count:n
  done

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
  (* Per-reference deltas permuted into traversal order, once per plan:
     a box then costs only its two cursor arrays. *)
  let along crefs =
    Array.map (fun k -> Array.map (fun (r : Exec.cref) -> r.m.(k)) crefs) order
  in
  let rstep = along reads and wstep = along (Array.map fst writes) in
  let rd = rstep.(nesting - 1) and wd = wstep.(nesting - 1) in
  let unit = (not force_generic) && unit_stride ~rd ~wd in
  let row = row_of ~unit writes ~rd ~wd in
  let observe_row = observe_row ~rd ~wd ~acc:(Array.map snd writes) in
  { compiled; reads; writes; order; reorderable; unit; rstep; wstep; row;
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
   box allocates nothing. *)
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
   traversal order, running [row x] on every innermost row.  The two
   cursor arrays are made once, when [traverse] is applied, and reseeded
   by every box, so a box allocates nothing.  The rows address operands
   through them unchecked, so the body refuses any domain but the one
   that applied it: two domains sharing the arrays would corrupt
   memory. *)
let traverse p (row : 'a row) (x : 'a) =
  let d = Array.length p.order in
  let nr = Array.length p.reads and nw = Array.length p.writes in
  let ra = Array.make nr 0 and wa = Array.make nw 0 in
  let owner = (Domain.self () :> int) in
  fun (b : box) ->
    if (Domain.self () :> int) <> owner then
      invalid_arg "Kernel: a box body called from another domain";
    if Array.length b <> d then invalid_arg "Kernel: box arity mismatch";
    for i = 0 to nr - 1 do
      ra.(i) <- start p.reads.(i) b
    done;
    for i = 0 to nw - 1 do
      wa.(i) <- start (fst p.writes.(i)) b
    done;
    let lo, hi = b.(p.order.(d - 1)) in
    walk p row x b (hi - lo + 1) ra wa 0

let run_box p (data : Exec.storage) = traverse p p.row data

let observe p ~reads ~writes ~accumulates =
  traverse p p.observe_row (reads, writes, accumulates)

(* ------------------------------------------------------------------ *)
(* Schedules and parallel execution                                    *)
(* ------------------------------------------------------------------ *)

let boxes_of_schedule s = Partition.(Scheduling.of_tiles (Codegen.tiles s))

let time ?(trace = Trace.disabled) pool p ~boxes ~steps ~repeats =
  Exec.time_with ~box:(run_box p) ~trace pool p.compiled boxes ~steps
    ~repeats

let sequential p ~steps =
  let storage = Exec.alloc p.compiled in
  let whole = Nest.bounds (Exec.nest p.compiled) and box = run_box p storage in
  for _step = 1 to steps do
    box whole
  done;
  storage
