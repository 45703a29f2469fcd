type mode = Auto | Exact | Bloom of int

(* 16M elements = a 2 MiB bitset per domain: cheap enough to default. *)
let exact_limit = 1 lsl 24

let default_bloom_bits = 1 lsl 22
let bloom_hashes = 4

(* Each instrument is owned by one domain but all of them are allocated
   by the coordinating domain, back to back on the heap.  A guard region
   on both sides of the payload keeps the bytes two domains hammer from
   ever sharing a cache line, so the instrumented pass does not serialize
   on false sharing at the object boundaries. *)
let pad = 128

type touched =
  | Bitset of { bits : Bytes.t; len : int }
      (** payload is [bits.[pad .. pad+len-1]] *)
  | Filter of { bits : Bytes.t; len : int; m : int }

let padded len = Bytes.make (len + (2 * pad)) '\000'

let touched mode ~universe =
  if universe < 0 then invalid_arg "Measure.touched: negative universe";
  let bitset n =
    let len = (n + 7) / 8 in
    Bitset { bits = padded len; len }
  in
  let bloom bits =
    let bits = max 64 bits in
    let len = (bits + 7) / 8 in
    Filter { bits = padded len; len; m = len * 8 }
  in
  match mode with
  | Exact -> bitset universe
  | Bloom bits -> bloom bits
  | Auto -> if universe <= exact_limit then bitset universe else bloom default_bloom_bits

let set_bit bytes i =
  let byte = pad + (i lsr 3) and mask = 1 lsl (i land 7) in
  let old = Char.code (Bytes.unsafe_get bytes byte) in
  if old land mask = 0 then
    Bytes.unsafe_set bytes byte (Char.unsafe_chr (old lor mask))

(* Two multiplicative mixes drive [bloom_hashes] probes by double
   hashing (Kirsch-Mitzenmacher). *)
let mix1 x =
  let x = x * 0x9E3779B97F4A7C1 in
  x lxor (x lsr 29)

let mix2 x =
  let x = (x + 0x165667B19E3779F9) * 0xC2B2AE3D27D4EB5 in
  x lxor (x lsr 32)

let touch t addr =
  match t with
  | Bitset { bits; _ } -> set_bit bits addr
  | Filter { bits; m; _ } ->
      let h1 = mix1 addr and h2 = mix2 addr lor 1 in
      for i = 0 to bloom_hashes - 1 do
        let h = (h1 + (i * h2)) land max_int in
        set_bit bits (h mod m)
      done

let popcount_byte = Array.init 256 (fun b ->
    let rec go b acc = if b = 0 then acc else go (b lsr 1) (acc + (b land 1)) in
    go b 0)

let ones bytes len =
  let total = ref 0 in
  for i = pad to pad + len - 1 do
    total := !total + popcount_byte.(Char.code (Bytes.unsafe_get bytes i))
  done;
  !total

let touched_count = function
  | Bitset { bits; len } -> ones bits len
  | Filter { bits; len; m } ->
      let x = ones bits len in
      if x >= m then max_int
      else
        let m = float_of_int m and x = float_of_int x in
        let est =
          -.(m /. float_of_int bloom_hashes) *. log (1.0 -. (x /. m))
        in
        int_of_float (Float.round est)

let is_exact = function Bitset _ -> true | Filter _ -> false

let bytes_of = function
  | Bitset { bits; len } -> (bits, len)
  | Filter { bits; len; _ } -> (bits, len)

let union_count ts =
  if Array.length ts = 0 then 0
  else begin
    let first, len = bytes_of ts.(0) in
    let acc = Bytes.copy first in
    Array.iteri
      (fun i t ->
        if i > 0 then begin
          let b, blen = bytes_of t in
          if blen <> len then
            invalid_arg "Measure.union_count: mismatched sets";
          for j = pad to pad + len - 1 do
            Bytes.unsafe_set acc j
              (Char.unsafe_chr
                 (Char.code (Bytes.unsafe_get acc j)
                 lor Char.code (Bytes.unsafe_get b j)))
          done
        end)
      ts;
    let merged =
      match ts.(0) with
      | Bitset _ -> Bitset { bits = acc; len }
      | Filter { m; _ } -> Filter { bits = acc; len; m }
    in
    touched_count merged
  end

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
  exact_footprints : bool;
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
  exact_footprints : bool;
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
    exact_footprints = raw.exact_footprints;
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
    (if r.exact_footprints then "footprint" else "footprint~");
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
