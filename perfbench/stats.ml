(* Order statistics for the per-run summaries. *)

(* Quartiles by the exclusive method, the default of Python's
   [statistics.quantiles xs ~n:4]; a single sample is its own
   quartiles. *)
let quartiles xs =
  match List.sort Float.compare xs with
  | [] -> invalid_arg "Stats.quartiles: no samples"
  | [ x ] -> (x, x, x)
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      let q i =
        let m = i * (n + 1) in
        let j = max 1 (min (n - 1) (m / 4)) in
        let delta = float_of_int (m - (j * 4)) in
        ((a.(j - 1) *. (4.0 -. delta)) +. (a.(j) *. delta)) /. 4.0
      in
      (q 1, q 2, q 3)

let median xs =
  let _, m, _ = quartiles xs in
  m

(* Mean of the middle 80% of the samples.  Each core of the host
   switches between two speeds ~30% apart, several times a second: the
   mean moves in proportion to the share of time spent at each, where
   the median jumps from one speed to the other when the shares are
   near even. *)
let trimmed_mean xs =
  let a = Array.of_list (List.sort Float.compare xs) in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.trimmed_mean: no samples";
  let k = n / 10 in
  let sum = ref 0.0 in
  for i = k to n - 1 - k do
    sum := !sum +. a.(i)
  done;
  !sum /. float_of_int (n - (2 * k))
