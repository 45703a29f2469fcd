(* Sets are owned by one domain each but often allocated by a
   coordinating domain, back to back on the heap.  A guard region on
   both sides of the payload keeps the bytes two domains hammer from
   ever sharing a cache line. *)
let pad = 128

type t = { bits : Bytes.t; universe : int }

let create ~universe =
  if universe < 0 then invalid_arg "Bitset.create: negative universe";
  { bits = Bytes.make (((universe + 7) / 8) + (2 * pad)) '\000'; universe }

let add { bits; _ } i =
  let byte = pad + (i lsr 3) and mask = 1 lsl (i land 7) in
  let old = Char.code (Bytes.unsafe_get bits byte) in
  if old land mask = 0 then
    Bytes.unsafe_set bits byte (Char.unsafe_chr (old lor mask))

let[@inline] set_mask bits j mask =
  Bytes.unsafe_set bits j
    (Char.unsafe_chr (Char.code (Bytes.unsafe_get bits j) lor mask))

(* Bits [lo .. hi], [lo <= hi]: the partial first and last bytes by
   mask, the whole bytes between them by one fill. *)
let fill bits lo hi =
  let first = pad + (lo lsr 3) and last = pad + (hi lsr 3) in
  let low = (0xff lsl (lo land 7)) land 0xff
  and high = 0xff lsr (7 - (hi land 7)) in
  if first = last then set_mask bits first (low land high)
  else begin
    set_mask bits first low;
    Bytes.unsafe_fill bits (first + 1) (last - first - 1) '\255';
    set_mask bits last high
  end

(* A negative stride is the same run walked up from its far end. *)
let add_run { bits; _ } start ~stride ~count =
  if count > 0 then begin
    let far = start + ((count - 1) * stride) in
    let lo = Int.min start far and step = abs stride in
    if step = 1 then fill bits lo (Int.max start far)
    else
      for j = 0 to (if step = 0 then 0 else count - 1) do
        let i = lo + (j * step) in
        set_mask bits (pad + (i lsr 3)) (1 lsl (i land 7))
      done
  end

let mem { bits; _ } i =
  Char.code (Bytes.unsafe_get bits (pad + (i lsr 3))) land (1 lsl (i land 7))
  <> 0

let popcount =
  String.init 256 (fun b ->
      let rec go b acc = if b = 0 then acc else go (b lsr 1) (acc + (b land 1)) in
      Char.chr (go b 0))

let cardinal t =
  let total = ref 0 in
  for j = pad to pad + ((t.universe + 7) / 8) - 1 do
    total :=
      !total
      + Char.code
          (String.unsafe_get popcount (Char.code (Bytes.unsafe_get t.bits j)))
  done;
  !total
