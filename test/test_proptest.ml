(* Smoke suite for the differential fuzzing subsystem (lib/proptest).

   Three things must hold for the fuzzer to be trustworthy:
   - determinism: a (seed, id) pair regenerates the identical case;
   - soundness: a fixed-seed clean campaign finds zero violations
     (every oracle layer agrees on every random nest);
   - sensitivity: each injectable fault is actually caught, and the
     shrinker returns a smaller case that still fails. *)

open Proptest

let clean_seed = 42
let smoke_count = 60

(* ------------------------------------------------------------------ *)
(* Generator                                                           *)
(* ------------------------------------------------------------------ *)

let test_generator_deterministic () =
  for id = 0 to 19 do
    let a = Gen.generate ~seed:clean_seed ~id in
    let b = Gen.generate ~seed:clean_seed ~id in
    Alcotest.(check string)
      (Printf.sprintf "case %d regenerates identically" id)
      (Gen.to_string a) (Gen.to_string b)
  done

let test_generator_valid () =
  (* Every generated case is well-formed: tile within extents, nprocs in
     range, iteration space small enough to brute-force. *)
  for id = 0 to 99 do
    let c = Gen.generate ~seed:7 ~id in
    let extents = Loopir.Nest.extents c.Gen.nest in
    Array.iteri
      (fun k t ->
        Alcotest.(check bool)
          (Printf.sprintf "case %d tile dim %d in 1..extent" id k)
          true
          (t >= 1 && t <= extents.(k)))
      c.Gen.tile;
    Alcotest.(check bool)
      (Printf.sprintf "case %d nprocs in 1..4" id)
      true
      (c.Gen.nprocs >= 1 && c.Gen.nprocs <= 4);
    Alcotest.(check bool)
      (Printf.sprintf "case %d space small" id)
      true
      (Loopir.Nest.iterations c.Gen.nest <= 1728)
  done

let test_generator_covers_shapes () =
  (* The G gallery must actually produce the awkward shapes the oracles
     exist for: singular matrices, multi-member classes, trip-count-1
     dims, sequential loops. *)
  let singular = ref 0
  and multi_class = ref 0
  and trip1 = ref 0
  and seq = ref 0 in
  for id = 0 to 199 do
    let c = Gen.generate ~seed:11 ~id in
    let nest = c.Gen.nest in
    List.iter
      (fun (r : Loopir.Reference.t) ->
        let g = Loopir.Affine.g r.index in
        if
          Matrixkit.Imat.rank g < min (Matrixkit.Imat.rows g) (Matrixkit.Imat.cols g)
        then incr singular)
      nest.Loopir.Nest.body;
    if
      List.exists
        (fun (cls : Footprint.Uniform.cls) -> List.length cls.refs >= 2)
        (Footprint.Uniform.classify_nest nest)
    then incr multi_class;
    if Array.exists (fun t -> t = 1) c.Gen.tile then incr trip1;
    if nest.Loopir.Nest.seq <> None then incr seq
  done;
  Alcotest.(check bool) "singular G generated" true (!singular > 10);
  Alcotest.(check bool) "multi-member classes generated" true (!multi_class > 10);
  Alcotest.(check bool) "trip-count-1 tiles generated" true (!trip1 > 30);
  Alcotest.(check bool) "doseq nests generated" true (!seq > 20)

(* Oracle 8 holds the kernel's unit-stride rows to the interpreter only
   on the cases whose plan takes them: over the 500 cases of each CI
   fuzz seed, every unrolled arity 1 to 5 must occur, with an odd and
   with an even innermost extent (a row of pairs with and without its
   one-point tail). *)
let test_generator_reaches_unit_rows () =
  let seen = Hashtbl.create 16 in
  List.iter
    (fun seed ->
      for id = 0 to 499 do
        let nest = (Gen.generate ~seed ~id).Gen.nest in
        let compiled = Runtime.Exec.compile nest in
        let plan = Runtime.Kernel.plan compiled in
        if Runtime.Kernel.shape plan = "unit-stride" then begin
          let order = Runtime.Kernel.order plan in
          let inner =
            (Loopir.Nest.extents nest).(order.(Array.length order - 1))
          in
          Hashtbl.replace seen
            (Array.length (Runtime.Exec.reads compiled), inner land 1)
            ()
        end
      done)
    [ 42; 7; 1234 ];
  for arity = 1 to 5 do
    List.iter
      (fun (parity, what) ->
        Alcotest.(check bool)
          (Printf.sprintf "unit-stride arity %d, %s innermost extent" arity
             what)
          true
          (Hashtbl.mem seen (arity, parity)))
      [ (0, "even"); (1, "odd") ]
  done

(* ------------------------------------------------------------------ *)
(* Clean campaign                                                      *)
(* ------------------------------------------------------------------ *)

let test_clean_campaign () =
  let o = Fuzz.run ~seed:clean_seed ~count:smoke_count () in
  Alcotest.(check int) "all cases tested" smoke_count o.Fuzz.tested;
  List.iter
    (fun f -> Alcotest.failf "unexpected violation:\n%s" (Fuzz.render_failure o f))
    o.Fuzz.failures

(* ------------------------------------------------------------------ *)
(* Injected faults: caught and shrunk                                  *)
(* ------------------------------------------------------------------ *)

let expected_oracle = function
  | Oracle.Spread_off_by_one -> "footprint-cumulative"
  | Oracle.Drop_iteration -> "owner-cover"
  | Oracle.No_fault -> assert false

let test_fault_caught fault () =
  let o = Fuzz.run ~fault ~max_failures:1 ~seed:clean_seed ~count:150 () in
  match o.Fuzz.failures with
  | [] ->
      Alcotest.failf "fault %s escaped %d cases"
        (Oracle.fault_to_string fault) o.Fuzz.tested
  | f :: _ ->
      Alcotest.(check string)
        "tripped the oracle the fault targets"
        (expected_oracle fault)
        f.Fuzz.shrunk_violation.Oracle.oracle;
      Alcotest.(check bool) "shrunk case not heavier" true
        (Gen.weight f.Fuzz.shrunk <= Gen.weight f.Fuzz.case);
      Alcotest.(check bool) "shrunk case is small" true
        (Loopir.Nest.iterations f.Fuzz.shrunk.Gen.nest
        <= Loopir.Nest.iterations f.Fuzz.case.Gen.nest);
      (* The report must be replayable: it names the seed and the case. *)
      let contains s sub =
        let n = String.length s and m = String.length sub in
        let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
        m = 0 || at 0
      in
      let report = Fuzz.render_failure o f in
      Alcotest.(check bool) "report names the seed" true
        (contains report (string_of_int clean_seed));
      Alcotest.(check bool) "report carries a replay command" true
        (contains report "loopartc fuzz --seed")

(* ------------------------------------------------------------------ *)
(* Shrinker                                                            *)
(* ------------------------------------------------------------------ *)

let test_shrink_reaches_fixpoint () =
  (* Shrinking with an always-failing oracle must terminate (weight is
     strictly decreasing) and reach a minimal case. *)
  let case = Gen.generate ~seed:3 ~id:5 in
  let v = { Oracle.oracle = "fake"; detail = "always fails" } in
  let r =
    Shrink.minimize ~fails:(fun _ -> Some v) ~budget:2000 case v
  in
  Alcotest.(check int) "minimal nest has one iteration" 1
    (Loopir.Nest.iterations r.Shrink.shrunk.Gen.nest);
  Alcotest.(check int) "minimal case uses one processor" 1
    r.Shrink.shrunk.Gen.nprocs

let () =
  Alcotest.run "proptest"
    [
      ( "generator",
        [
          Alcotest.test_case "deterministic" `Quick test_generator_deterministic;
          Alcotest.test_case "valid cases" `Quick test_generator_valid;
          Alcotest.test_case "shape coverage" `Quick test_generator_covers_shapes;
          Alcotest.test_case "every unit-stride arity" `Quick
            test_generator_reaches_unit_rows;
        ] );
      ( "oracles",
        [
          Alcotest.test_case "clean campaign, zero violations" `Slow
            test_clean_campaign;
        ] );
      ( "fault injection",
        [
          Alcotest.test_case "spread off-by-one caught" `Slow
            (test_fault_caught Oracle.Spread_off_by_one);
          Alcotest.test_case "dropped iteration caught" `Slow
            (test_fault_caught Oracle.Drop_iteration);
        ] );
      ( "shrinker",
        [
          Alcotest.test_case "terminates at a minimal case" `Quick
            test_shrink_reaches_fixpoint;
        ] );
    ]
