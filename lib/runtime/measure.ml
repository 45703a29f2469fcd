type mode = Exact

(* Each instrument is owned by one domain but all of them are allocated
   by the coordinating domain, back to back on the heap.  A guard region
   on both sides of the payload keeps the bytes two domains hammer from
   ever sharing a cache line, so the instrumented pass does not serialize
   on false sharing at the object boundaries. *)
let pad = 128

(* Bit [i] of the set is bit [i land 7] of [bits.[pad + i lsr 3]]. *)
type touched = { bits : Bytes.t; universe : int }

let touched ~universe =
  if universe < 0 then invalid_arg "Measure.touched: negative universe";
  { bits = Bytes.make (((universe + 7) / 8) + (2 * pad)) '\000'; universe }

let touch { bits; _ } i =
  let byte = pad + (i lsr 3) and mask = 1 lsl (i land 7) in
  let old = Char.code (Bytes.unsafe_get bits byte) in
  if old land mask = 0 then
    Bytes.unsafe_set bits byte (Char.unsafe_chr (old lor mask))

let mem { bits; _ } i =
  Char.code (Bytes.unsafe_get bits (pad + (i lsr 3))) land (1 lsl (i land 7))
  <> 0

let popcount_byte = Array.init 256 (fun b ->
    let rec go b acc = if b = 0 then acc else go (b lsr 1) (acc + (b land 1)) in
    go b 0)

(* Ones in the bit-or of [ts]' payloads, byte by byte. *)
let ones ts =
  let total = ref 0 in
  for j = pad to pad + ((ts.(0).universe + 7) / 8) - 1 do
    let byte = ref 0 in
    for k = 0 to Array.length ts - 1 do
      byte := !byte lor Char.code (Bytes.unsafe_get ts.(k).bits j)
    done;
    total := !total + popcount_byte.(!byte)
  done;
  !total

let touched_count t = ones [| t |]

let union_count ts =
  if Array.length ts = 0 then 0
  else if Array.exists (fun t -> t.universe <> ts.(0).universe) ts then
    invalid_arg "Measure.union_count: mismatched sets"
  else ones ts

type domain_stat = {
  domain : int;
  iterations : int;
  seconds : float;
  footprint : int;
}

type raw = {
  wall_seconds : float;
  seconds : float array;
  iterations : int array;
  footprints : int array;
  distinct_total : int;
  checksum : float;
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
          });
    wall_seconds = raw.wall_seconds;
    distinct_total = raw.distinct_total;
    checksum = raw.checksum;
  }

let max_footprint r =
  Array.fold_left (fun acc d -> max acc d.footprint) 0 r.per_domain

let pp_report ppf r =
  Format.fprintf ppf "@[<v>=== %s: %s on %d domain%s" r.name r.policy r.nprocs
    (if r.nprocs = 1 then "" else "s");
  if r.steps > 1 then Format.fprintf ppf ", %d sequential steps" r.steps;
  Format.fprintf ppf " (min of %d run%s) ===@," r.repeats
    (if r.repeats = 1 then "" else "s");
  Format.fprintf ppf "%-8s %12s %12s %12s@," "domain" "time (ms)" "iterations"
    "footprint";
  Array.iter
    (fun d ->
      Format.fprintf ppf "%-8d %12.3f %12d %12d@," d.domain
        (d.seconds *. 1000.0) d.iterations d.footprint)
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
  Format.fprintf ppf "checksum: %s@]" (Json.to_string (Json.Float r.checksum))
