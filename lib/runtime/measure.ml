open Intmath

type mode = Exact

type sharing = {
  footprints : int array;
  distinct : int;
  flow_in : int array;
  crossing : int;
  read_written : int;
  races : int list;
  contended : int list;
}

(* Set bits of a 64-bit word, by halving sums (no table, no loop). *)
let[@inline] popcount (x : int64) =
  let open Int64 in
  let x = sub x (logand (shift_right_logical x 1) 0x5555555555555555L) in
  let x =
    add (logand x 0x3333333333333333L)
      (logand (shift_right_logical x 2) 0x3333333333333333L)
  in
  let x = logand (add x (shift_right_logical x 4)) 0x0f0f0f0f0f0f0f0fL in
  to_int (shift_right_logical (mul x 0x0101010101010101L) 56)

(* The eight payload bytes from byte [j] as one little-endian word:
   element [8 * (j - pad) + b] is bit [b].  A row's last word may reach
   up to seven bytes into the guard region, which holds no element. *)
let[@inline] word (t : Bitset.t) j = Bytes.get_int64_le t.bits j

(* Domain [p]'s written bits at [j]: its plain writes and accumulates. *)
let[@inline] written writes accumulates p j =
  Int64.logor (word writes.(p) j) (word accumulates.(p) j)

(* One pass over the payload, a 64-bit word at a time.  A domain's
   written bits [x_p] are its plain writes and accumulates together.
   Per word, [r1]/[w1]/[t1] hold the bits some domain reads/writes/
   touches and [w2]/[t2] the bits two or more write/touch; [r1 land w1]
   are the bits read and written.  An element crosses iff some domain
   writes it and two or more touch it ([w1 land t2]); the bits written
   by a domain other than [p] are [w2 lor (w1 land lnot x_p)].  A word
   where nothing crosses has no flow-in and no multi-writer element
   either, so only crossing words are read a second time, and only
   words with [w2 <> 0] a third, to split [w2] by whether some domain
   plain-writes the bit. *)
let sharing ~reads ~writes ~accumulates =
  let n = Array.length reads in
  if Array.length writes <> n || Array.length accumulates <> n then
    invalid_arg "Measure.sharing: row counts";
  let footprints = Array.make n 0 and flow_in = Array.make n 0 in
  let distinct = ref 0 and crossing = ref 0 and read_written = ref 0 in
  let races = ref [] and contended = ref [] in
  if n > 0 then begin
    let universe = reads.(0).Bitset.universe in
    if
      Array.exists
        (fun (t : Bitset.t) -> t.universe <> universe)
        (Array.concat [ reads; writes; accumulates ])
    then invalid_arg "Measure.sharing: mismatched sets";
    let open Int64 in
    (* Consed in address order: the lists are reversed at the end. *)
    let push l j bits =
      for b = 0 to 63 do
        if logand bits (shift_left 1L b) <> 0L then
          l := (((j - Bitset.pad) * 8) + b) :: !l
      done
    in
    for k = 0 to ((universe + 63) / 64) - 1 do
      let j = Bitset.pad + (8 * k) in
      let r1 = ref 0L and w1 = ref 0L and w2 = ref 0L in
      let t1 = ref 0L and t2 = ref 0L in
      for p = 0 to n - 1 do
        let rp = word reads.(p) j and xp = written writes accumulates p j in
        let tp = logor rp xp in
        if tp <> 0L then begin
          r1 := logor !r1 rp;
          footprints.(p) <- footprints.(p) + popcount tp;
          w2 := logor !w2 (logand !w1 xp);
          w1 := logor !w1 xp;
          t2 := logor !t2 (logand !t1 tp);
          t1 := logor !t1 tp
        end
      done;
      if !t1 <> 0L then begin
        distinct := !distinct + popcount !t1;
        read_written := !read_written + popcount (logand !r1 !w1);
        let cross = logand !w1 !t2 in
        if cross <> 0L then begin
          crossing := !crossing + popcount cross;
          for p = 0 to n - 1 do
            let x = written writes accumulates p j in
            let others = logor !w2 (logand !w1 (lognot x)) in
            flow_in.(p) <-
              flow_in.(p) + popcount (logand (word reads.(p) j) others)
          done;
          if !w2 <> 0L then begin
            let plain = ref 0L in
            for p = 0 to n - 1 do
              plain := logor !plain (word writes.(p) j)
            done;
            push races j (logand !w2 !plain);
            push contended j (logand !w2 (lognot !plain))
          end
        end
      end
    done
  end;
  {
    footprints;
    distinct = !distinct;
    flow_in;
    crossing = !crossing;
    read_written = !read_written;
    races = List.rev !races;
    contended = List.rev !contended;
  }

type barriers = Barrier_free | Every_step of int

type repeat_buffer = Reset_each | Reused

type domain_stat = {
  domain : int;
  iterations : int;
  seconds : float;
  footprint : int;
  flow_in : int;
}

type raw = {
  wall_seconds : float;
  seconds : float array;
  iterations : int array;
  footprints : int array;
  distinct_total : int;
  checksum : float;
  operands : float array;
  flow_in : int array;
  barriers : barriers;
  repeat_buffer : repeat_buffer;
}

type report = {
  name : string;
  policy : string;
  nprocs : int;
  steps : int;
  repeats : int;
  total_elements : int;
  predicted_per_domain : int option;
  per_domain : domain_stat array;
  wall_seconds : float;
  distinct_total : int;
  checksum : float;
  operands : float array;
  barriers : barriers;
  repeat_buffer : repeat_buffer;
}

let report ~name ~policy ~steps ~repeats ~total_elements ?predicted_per_domain
    (raw : raw) =
  let nprocs = Array.length raw.seconds in
  {
    name;
    policy;
    nprocs;
    steps;
    repeats;
    total_elements;
    predicted_per_domain;
    per_domain =
      Array.init nprocs (fun p ->
          {
            domain = p;
            iterations = raw.iterations.(p);
            seconds = raw.seconds.(p);
            footprint = raw.footprints.(p);
            flow_in = raw.flow_in.(p);
          });
    wall_seconds = raw.wall_seconds;
    distinct_total = raw.distinct_total;
    checksum = raw.checksum;
    operands = raw.operands;
    barriers = raw.barriers;
    repeat_buffer = raw.repeat_buffer;
  }

let max_footprint r =
  Array.fold_left (fun acc d -> max acc d.footprint) 0 r.per_domain

let pp_report ppf r =
  Format.fprintf ppf "@[<v>=== %s: %s on %d domain%s" r.name r.policy r.nprocs
    (if r.nprocs = 1 then "" else "s");
  if r.steps > 1 then Format.fprintf ppf ", %d sequential steps" r.steps;
  Format.fprintf ppf " (min of %d run%s) ===@," r.repeats
    (if r.repeats = 1 then "" else "s");
  Format.fprintf ppf "%-8s %12s %12s %12s %12s@," "domain" "time (ms)"
    "iterations" "footprint" "flow-in";
  Array.iter
    (fun d ->
      Format.fprintf ppf "%-8d %12.3f %12d %12d %12d@," d.domain
        (d.seconds *. 1000.0) d.iterations d.footprint d.flow_in)
    r.per_domain;
  Format.fprintf ppf "wall: %.3f ms; distinct elements touched: %d of %d@,"
    (r.wall_seconds *. 1000.0)
    r.distinct_total r.total_elements;
  (match r.predicted_per_domain with
  | Some predicted ->
      Format.fprintf ppf
        "model predicted footprint/domain: %d; measured max: %d (%.2fx)@,"
        predicted (max_footprint r)
        (if predicted = 0 then Float.nan
         else float_of_int (max_footprint r) /. float_of_int predicted)
  | None ->
      Format.fprintf ppf "no model prediction for this policy@,");
  (match r.barriers with
  | Barrier_free ->
      Format.fprintf ppf "step barriers: none (no element crosses domains)@,"
  | Every_step 0 ->
      Format.fprintf ppf "step barriers: every step (work dealt at run time)@,"
  | Every_step n ->
      Format.fprintf ppf "step barriers: every step (%d %s)@," n
        (if n = 1 then "element crosses" else "elements cross"));
  Format.fprintf ppf "repeats: %s@,"
    (match r.repeat_buffer with
    | Reused -> "no reset (no element is both read and written)"
    | Reset_each -> "reset before each");
  Format.fprintf ppf "checksum: %s@]" (Json.to_string (Json.Float r.checksum))
