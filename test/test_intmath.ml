(* Unit and property tests for the exact-arithmetic substrate. *)

open Intmath

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Int_math                                                            *)
(* ------------------------------------------------------------------ *)

let test_gcd () =
  check "gcd 12 18" 6 (Int_math.gcd 12 18);
  check "gcd 0 0" 0 (Int_math.gcd 0 0);
  check "gcd 0 7" 7 (Int_math.gcd 0 7);
  check "gcd negative" 6 (Int_math.gcd (-12) 18);
  check "gcd both negative" 4 (Int_math.gcd (-8) (-12));
  check "gcd coprime" 1 (Int_math.gcd 17 13)

let test_egcd () =
  List.iter
    (fun (a, b) ->
      let g, x, y = Int_math.egcd a b in
      check (Printf.sprintf "egcd %d %d gcd" a b) (Int_math.gcd a b) g;
      check (Printf.sprintf "egcd %d %d bezout" a b) g ((a * x) + (b * y)))
    [ (12, 18); (0, 5); (5, 0); (-12, 18); (17, 13); (-7, -21); (1, 1) ]

let test_lcm () =
  check "lcm 4 6" 12 (Int_math.lcm 4 6);
  check "lcm 0 5" 0 (Int_math.lcm 0 5);
  check "lcm negative" 12 (Int_math.lcm (-4) 6)

let test_mul_exact () =
  check "small" 42 (Int_math.mul_exact 6 7);
  check "zero" 0 (Int_math.mul_exact 0 max_int);
  checkb "overflow raises" true
    (try
       ignore (Int_math.mul_exact max_int 2);
       false
     with Int_math.Overflow -> true)

let test_add_exact () =
  check "small" 3 (Int_math.add_exact 1 2);
  checkb "overflow raises" true
    (try
       ignore (Int_math.add_exact max_int 1);
       false
     with Int_math.Overflow -> true);
  checkb "negative overflow raises" true
    (try
       ignore (Int_math.add_exact min_int (-1));
       false
     with Int_math.Overflow -> true)

let test_ipow () =
  check "2^10" 1024 (Int_math.ipow 2 10);
  check "x^0" 1 (Int_math.ipow 99 0);
  check "x^1" 99 (Int_math.ipow 99 1);
  check "(-2)^3" (-8) (Int_math.ipow (-2) 3)

let test_floor_ceil_div () =
  check "floor 7/2" 3 (Int_math.floor_div 7 2);
  check "floor -7/2" (-4) (Int_math.floor_div (-7) 2);
  check "floor 7/-2" (-4) (Int_math.floor_div 7 (-2));
  check "ceil 7/2" 4 (Int_math.ceil_div 7 2);
  check "ceil -7/2" (-3) (Int_math.ceil_div (-7) 2);
  check "floor_mod -7 2" 1 (Int_math.floor_mod (-7) 2);
  check "floor_mod 7 -2" (-1) (Int_math.floor_mod 7 (-2))

let test_isqrt_iroot () =
  check "isqrt 0" 0 (Int_math.isqrt 0);
  check "isqrt 15" 3 (Int_math.isqrt 15);
  check "isqrt 16" 4 (Int_math.isqrt 16);
  check "iroot 3 26" 2 (Int_math.iroot 3 26);
  check "iroot 3 27" 3 (Int_math.iroot 3 27);
  check "iroot 1 42" 42 (Int_math.iroot 1 42)

let test_divisors () =
  Alcotest.(check (list int)) "divisors 12" [ 1; 2; 3; 4; 6; 12 ]
    (Int_math.divisors 12);
  Alcotest.(check (list int)) "divisors 1" [ 1 ] (Int_math.divisors 1);
  Alcotest.(check (list int)) "divisors prime" [ 1; 13 ] (Int_math.divisors 13)

let test_factorizations () =
  let fs = Int_math.factorizations 2 12 in
  check "count of ordered pairs" 6 (List.length fs);
  checkb "all products are 12" true
    (List.for_all (fun f -> Int_math.prod f = 12) fs);
  let fs3 = Int_math.factorizations 3 8 in
  checkb "3-way products are 8" true
    (List.for_all (fun f -> Int_math.prod f = 8) fs3);
  check "1-way" 1 (List.length (Int_math.factorizations 1 60))

(* ------------------------------------------------------------------ *)
(* Rat                                                                 *)
(* ------------------------------------------------------------------ *)

let rat = Alcotest.testable Rat.pp Rat.equal

let test_rat_normalization () =
  Alcotest.check rat "6/4 = 3/2" (Rat.make 3 2) (Rat.make 6 4);
  Alcotest.check rat "neg den" (Rat.make (-1) 2) (Rat.make 1 (-2));
  check "den positive" 2 (Rat.den (Rat.make 1 (-2)));
  Alcotest.check rat "zero" Rat.zero (Rat.make 0 17)

let test_rat_arith () =
  let open Rat.Infix in
  Alcotest.check rat "1/2 + 1/3" (Rat.make 5 6) (Rat.make 1 2 + Rat.make 1 3);
  Alcotest.check rat "1/2 * 2/3" (Rat.make 1 3) (Rat.make 1 2 * Rat.make 2 3);
  Alcotest.check rat "div" (Rat.make 3 4) (Rat.make 1 2 / Rat.make 2 3);
  checkb "compare" true (Rat.make 1 3 < Rat.make 1 2);
  checkb "div by zero raises" true
    (try
       ignore (Rat.inv Rat.zero);
       false
     with Division_by_zero -> true)

let test_rat_rounding () =
  check "floor 7/2" 3 (Rat.floor (Rat.make 7 2));
  check "floor -7/2" (-4) (Rat.floor (Rat.make (-7) 2));
  check "ceil 7/2" 4 (Rat.ceil (Rat.make 7 2));
  check "to_int_exn" 5 (Rat.to_int_exn (Rat.of_int 5));
  checkb "to_int_exn non-integer raises" true
    (try
       ignore (Rat.to_int_exn (Rat.make 1 2));
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Mpoly                                                               *)
(* ------------------------------------------------------------------ *)

let test_mpoly_basic () =
  let x = Mpoly.var 0 and y = Mpoly.var 1 in
  let p = Mpoly.add (Mpoly.mul x y) (Mpoly.scale_int 3 x) in
  Alcotest.check rat "eval" (Rat.of_int 16)
    (Mpoly.eval_int p [| 2; 5 |]);
  check "degree" 2 (Mpoly.degree p);
  check "nvars" 2 (Mpoly.num_vars p);
  checks "print" "x0*x1 + 3*x0" (Mpoly.to_string p)

let test_mpoly_partial () =
  (* d/dx (x^2 y + 3x) = 2xy + 3 *)
  let x = Mpoly.var 0 and y = Mpoly.var 1 in
  let p = Mpoly.add (Mpoly.mul (Mpoly.mul x x) y) (Mpoly.scale_int 3 x) in
  let dp = Mpoly.partial 0 p in
  Alcotest.check rat "at (2,5)" (Rat.of_int 23) (Mpoly.eval_int dp [| 2; 5 |]);
  Alcotest.(check bool)
    "d/dz is zero" true
    (Mpoly.is_zero (Mpoly.partial 2 p))

let test_mpoly_subst () =
  (* substitute x := y+1 in x*y: (y+1)*y = y^2 + y *)
  let x = Mpoly.var 0 and y = Mpoly.var 1 in
  let p = Mpoly.mul x y in
  let q = Mpoly.subst 0 (Mpoly.add y Mpoly.one) p in
  Alcotest.check rat "at y=4" (Rat.of_int 20) (Mpoly.eval_int q [| 0; 4 |])

let test_mpoly_zero_and_cancel () =
  let x = Mpoly.var 0 in
  Alcotest.(check bool) "x - x = 0" true (Mpoly.is_zero (Mpoly.sub x x));
  check "zero degree" (-1) (Mpoly.degree Mpoly.zero);
  checks "zero prints" "0" (Mpoly.to_string Mpoly.zero)

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let nonneg = QCheck2.Gen.int_range 0 1000
let small = QCheck2.Gen.int_range (-1000) 1000
let nonzero = QCheck2.Gen.(map (fun n -> if n >= 0 then n + 1 else n) small)

let prop_gcd_divides =
  QCheck2.Test.make ~name:"gcd divides both" ~count:500
    QCheck2.Gen.(pair small small)
    (fun (a, b) ->
      let g = Int_math.gcd a b in
      if a = 0 && b = 0 then g = 0 else a mod g = 0 && b mod g = 0)

let prop_egcd_bezout =
  QCheck2.Test.make ~name:"egcd bezout identity" ~count:500
    QCheck2.Gen.(pair small small)
    (fun (a, b) ->
      let g, x, y = Int_math.egcd a b in
      (a * x) + (b * y) = g && g = Int_math.gcd a b)

let prop_floor_div =
  QCheck2.Test.make ~name:"floor_div/floor_mod invariant" ~count:500
    QCheck2.Gen.(pair small nonzero)
    (fun (a, b) ->
      let q = Int_math.floor_div a b and r = Int_math.floor_mod a b in
      (b * q) + r = a && (if b > 0 then r >= 0 && r < b else r <= 0 && r > b))

let prop_isqrt =
  QCheck2.Test.make ~name:"isqrt bounds" ~count:500 nonneg (fun n ->
      let r = Int_math.isqrt n in
      r * r <= n && (r + 1) * (r + 1) > n)

let prop_rat_field =
  QCheck2.Test.make ~name:"rat add/mul distributes" ~count:300
    QCheck2.Gen.(triple (pair small nonzero) (pair small nonzero)
                   (pair small nonzero))
    (fun ((a, b), (c, d), (e, f)) ->
      let x = Rat.make a b and y = Rat.make c d and z = Rat.make e f in
      Rat.equal
        (Rat.mul x (Rat.add y z))
        (Rat.add (Rat.mul x y) (Rat.mul x z)))

let prop_rat_compare_antisym =
  QCheck2.Test.make ~name:"rat compare antisymmetric" ~count:300
    QCheck2.Gen.(pair (pair small nonzero) (pair small nonzero))
    (fun ((a, b), (c, d)) ->
      let x = Rat.make a b and y = Rat.make c d in
      Rat.compare x y = -Rat.compare y x)

let gen_poly =
  (* Random polynomial in up to 3 variables, degree <= 2 per var. *)
  QCheck2.Gen.(
    let gen_term =
      map2
        (fun coeff exps ->
          let mono =
            List.mapi (fun i e -> Mpoly.pow (Mpoly.var i) e) exps
          in
          Mpoly.scale_int coeff (Mpoly.product mono))
        (int_range (-5) 5)
        (list_size (return 3) (int_range 0 2))
    in
    map Mpoly.sum (list_size (int_range 0 5) gen_term))

let prop_mpoly_eval_hom =
  QCheck2.Test.make ~name:"mpoly eval is a ring hom" ~count:200
    QCheck2.Gen.(pair gen_poly gen_poly)
    (fun (p, q) ->
      let env = [| 2; -3; 5 |] in
      Rat.equal
        (Mpoly.eval_int (Mpoly.mul p q) env)
        (Rat.mul (Mpoly.eval_int p env) (Mpoly.eval_int q env))
      && Rat.equal
           (Mpoly.eval_int (Mpoly.add p q) env)
           (Rat.add (Mpoly.eval_int p env) (Mpoly.eval_int q env)))

let prop_mpoly_partial_linear =
  QCheck2.Test.make ~name:"partial is linear" ~count:200
    QCheck2.Gen.(pair gen_poly gen_poly)
    (fun (p, q) ->
      Mpoly.equal
        (Mpoly.partial 1 (Mpoly.add p q))
        (Mpoly.add (Mpoly.partial 1 p) (Mpoly.partial 1 q)))

let prop_mpoly_leibniz =
  QCheck2.Test.make ~name:"partial satisfies Leibniz rule" ~count:200
    QCheck2.Gen.(pair gen_poly gen_poly)
    (fun (p, q) ->
      Mpoly.equal
        (Mpoly.partial 0 (Mpoly.mul p q))
        (Mpoly.add
           (Mpoly.mul (Mpoly.partial 0 p) q)
           (Mpoly.mul p (Mpoly.partial 0 q))))

(* ------------------------------------------------------------------ *)
(* Bitset                                                              *)
(* ------------------------------------------------------------------ *)

(* [Bitset.add_run] against folding [Bitset.add] over the same run, byte
   for byte, guard regions included: every stride in -9..9 and count in
   0..70 that fits each universe, from both edges of the range of fitting
   starts (the universe's first and last elements) and from random ones
   (runs that start and end mid-byte), plus runs of exactly one byte. *)
let test_bitset_add_run () =
  let rng = Random.State.make [| 27 |] in
  let agree universe start ~stride ~count =
    let run = Bitset.create ~universe and folded = Bitset.create ~universe in
    Bitset.add_run run start ~stride ~count;
    for j = 0 to count - 1 do
      Bitset.add folded (start + (j * stride))
    done;
    let label =
      Printf.sprintf "universe %d, start %d, stride %d, count %d" universe
        start stride count
    in
    checkb (label ^ ": = folded add") true
      (Bytes.equal run.Bitset.bits folded.Bitset.bits);
    let len = Bytes.length run.Bitset.bits in
    checkb (label ^ ": guard bytes zero") true
      (Bytes.for_all (( = ) '\000') (Bytes.sub run.Bitset.bits 0 Bitset.pad)
      && Bytes.for_all (( = ) '\000')
           (Bytes.sub run.Bitset.bits (len - Bitset.pad) Bitset.pad))
  in
  List.iter
    (fun universe ->
      for stride = -9 to 9 do
        for count = 0 to 70 do
          let span = abs stride * max 0 (count - 1) in
          if span < universe then begin
            (* Fitting starts: the run stays in [0, universe - 1]. *)
            let lo = if stride < 0 then span else 0 in
            let hi = if stride < 0 then universe - 1 else universe - 1 - span in
            List.iter
              (fun start -> agree universe start ~stride ~count)
              (lo :: hi
              :: List.init 3 (fun _ -> lo + Random.State.int rng (hi - lo + 1)))
          end
        done
      done;
      for byte = 0 to (universe / 8) - 1 do
        agree universe (8 * byte) ~stride:1 ~count:8;
        agree universe ((8 * byte) + 7) ~stride:(-1) ~count:8
      done)
    [ 1; 7; 8; 9; 64; 200; 701 ]

let props =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_gcd_divides;
      prop_egcd_bezout;
      prop_floor_div;
      prop_isqrt;
      prop_rat_field;
      prop_rat_compare_antisym;
      prop_mpoly_eval_hom;
      prop_mpoly_partial_linear;
      prop_mpoly_leibniz;
    ]

let () =
  Alcotest.run "intmath"
    [
      ( "int_math",
        [
          Alcotest.test_case "gcd" `Quick test_gcd;
          Alcotest.test_case "egcd" `Quick test_egcd;
          Alcotest.test_case "lcm" `Quick test_lcm;
          Alcotest.test_case "mul_exact" `Quick test_mul_exact;
          Alcotest.test_case "add_exact" `Quick test_add_exact;
          Alcotest.test_case "ipow" `Quick test_ipow;
          Alcotest.test_case "floor/ceil div" `Quick test_floor_ceil_div;
          Alcotest.test_case "isqrt/iroot" `Quick test_isqrt_iroot;
          Alcotest.test_case "divisors" `Quick test_divisors;
          Alcotest.test_case "factorizations" `Quick test_factorizations;
        ] );
      ( "rat",
        [
          Alcotest.test_case "normalization" `Quick test_rat_normalization;
          Alcotest.test_case "arithmetic" `Quick test_rat_arith;
          Alcotest.test_case "rounding" `Quick test_rat_rounding;
        ] );
      ( "mpoly",
        [
          Alcotest.test_case "basic" `Quick test_mpoly_basic;
          Alcotest.test_case "partial" `Quick test_mpoly_partial;
          Alcotest.test_case "subst" `Quick test_mpoly_subst;
          Alcotest.test_case "cancellation" `Quick test_mpoly_zero_and_cancel;
        ] );
      ("properties", props);
      ("bitset", [ Alcotest.test_case "add_run = folded add" `Quick test_bitset_add_run ]);
    ]
