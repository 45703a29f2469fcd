(* Tests for the multicore execution runtime: the domain pool, the
   dynamic-scheduling primitives, the footprint instruments, and - the
   point of the subsystem - agreement between what the runtime measures
   on real domains and what Machine.Sim (and Theorems 2/4) predict. *)

open Loopir
open Partition
open Loopart

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Pool: barrier and dispatch                                          *)
(* ------------------------------------------------------------------ *)

let test_pool_runs_all_domains () =
  Runtime.Pool.with_pool 4 (fun pool ->
      let hits = Array.make 4 0 in
      (* Three jobs on the same pool: domains are reused, not respawned. *)
      for _ = 1 to 3 do
        Runtime.Pool.run pool (fun p _ -> hits.(p) <- hits.(p) + 1)
      done;
      Array.iteri (fun p h -> check (Printf.sprintf "domain %d ran" p) 3 h)
        hits)

let test_pool_barrier_separates_phases () =
  (* Every domain increments a counter, waits, then reads it: after the
     barrier all must observe the full count, in every episode. *)
  Runtime.Pool.with_pool 4 (fun pool ->
      let counter = Atomic.make 0 in
      let ok = Atomic.make true in
      Runtime.Pool.run pool (fun _ barrier ->
          let sense = ref false in
          for episode = 1 to 5 do
            Atomic.incr counter;
            Runtime.Pool.Barrier.wait barrier ~sense;
            if Atomic.get counter < 4 * episode then Atomic.set ok false;
            Runtime.Pool.Barrier.wait barrier ~sense
          done);
      checkb "all phases saw the full count" true (Atomic.get ok))

let test_pool_reraises_job_exception () =
  Runtime.Pool.with_pool 3 (fun pool ->
      let raised =
        try
          Runtime.Pool.run pool (fun p barrier ->
              if p = 1 then failwith "boom"
              else Runtime.Pool.Barrier.wait barrier ~sense:(ref false));
          false
        with Failure m -> m = "boom"
      in
      checkb "worker failure reaches the caller" true raised;
      (* And the pool survives for the next job. *)
      let n = Atomic.make 0 in
      Runtime.Pool.run pool (fun _ _ -> Atomic.incr n);
      check "pool still usable" 3 (Atomic.get n))

let test_pool_first_exception_wins () =
  (* Two workers raise; run must re-raise exactly one of them (the first
     recorded) and swallow the other - never a barrier deadlock. *)
  Runtime.Pool.with_pool 4 (fun pool ->
      let raised =
        try
          Runtime.Pool.run pool (fun p barrier ->
              if p = 0 || p = 2 then failwith (Printf.sprintf "boom%d" p)
              else Runtime.Pool.Barrier.wait barrier ~sense:(ref false));
          None
        with Failure m -> Some m
      in
      (match raised with
      | Some ("boom0" | "boom2") -> ()
      | Some m -> Alcotest.failf "unexpected exception %S" m
      | None -> Alcotest.fail "no exception reached the caller");
      let n = Atomic.make 0 in
      Runtime.Pool.run pool (fun _ _ -> Atomic.incr n);
      check "pool still usable after double fault" 4 (Atomic.get n))

let test_pool_survivors_observe_abort () =
  (* Survivors parked at the barrier when a sibling dies must all wake
     with Aborted - even on an oversubscribed single-core host. *)
  Runtime.Pool.with_pool 6 (fun pool ->
      let aborted = Atomic.make 0 in
      (try
         Runtime.Pool.run pool (fun p barrier ->
             if p = 5 then failwith "die"
             else
               try
                 let sense = ref false in
                 Runtime.Pool.Barrier.wait barrier ~sense;
                 (* Unreachable: the barrier can never fill. *)
                 Runtime.Pool.Barrier.wait barrier ~sense
               with Runtime.Pool.Aborted ->
                 Atomic.incr aborted;
                 raise Runtime.Pool.Aborted)
       with Failure _ -> ());
      check "all five survivors observed Aborted" 5 (Atomic.get aborted))

let test_with_pool_shuts_down_on_exception () =
  let escaped =
    try
      Runtime.Pool.with_pool 3 (fun pool ->
          Runtime.Pool.run pool (fun _ _ -> ());
          failwith "body failed")
    with Failure m -> m = "body failed"
  in
  checkb "body exception escapes with_pool" true escaped

(* A watched run probes while its job runs, and returns as soon as the
   job ends, long before a probe is due. *)
let test_watched_run () =
  Runtime.Pool.with_pool 2 (fun pool ->
      let probes = Atomic.make 0 in
      let watch = (0.002, fun () -> Atomic.incr probes) in
      Runtime.Pool.run ~watch pool (fun _ _ -> Unix.sleepf 0.05);
      checkb "probed while the job ran" true (Atomic.get probes >= 5);
      let t0 = Runtime.Mclock.now () in
      Runtime.Pool.run ~watch:(10.0, ignore) pool (fun _ _ -> ());
      checkb "woken by the job's end" true (Runtime.Mclock.now () -. t0 < 5.0))

(* With descriptors past FD_SETSIZE the run's select fails, and the
   caller polls instead: the job still ends and is still watched. *)
let test_watched_run_past_fd_setsize () =
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let rec hold n acc =
    match Unix.dup null with
    | fd when n > 1 -> hold (n - 1) (fd :: acc)
    | fd -> fd :: acc
    | exception Unix.Unix_error (Unix.EMFILE, _, _) -> acc
  in
  let held = hold 1100 [] in
  Fun.protect
    ~finally:(fun () -> List.iter Unix.close (null :: held))
    (fun () ->
      Runtime.Pool.with_pool 2 (fun pool ->
          let probes = Atomic.make 0 in
          Runtime.Pool.run
            ~watch:(0.002, fun () -> Atomic.incr probes)
            pool
            (fun _ _ -> Unix.sleepf 0.05);
          checkb "probed while the job ran" true (Atomic.get probes >= 5)))

let test_counter_covers_range () =
  let c = Runtime.Pool.Counter.create ~total:100 in
  let seen = Array.make 100 0 in
  let rec drain () =
    match Runtime.Pool.Counter.next c ~chunk:(fun ~remaining ->
              Intmath.Int_math.ceil_div remaining 4)
    with
    | None -> ()
    | Some (lo, hi) ->
        checkb "ordered" true (lo < hi && hi <= 100);
        for i = lo to hi - 1 do
          seen.(i) <- seen.(i) + 1
        done;
        drain ()
  in
  drain ();
  Array.iter (fun s -> check "each index grabbed once" 1 s) seen;
  (* reset rewinds for the next sequential step *)
  Runtime.Pool.Counter.reset c;
  checkb "reset reopens the range" true
    (Runtime.Pool.Counter.next c ~chunk:(fun ~remaining:_ -> 1) <> None)

let test_deques_cover_and_steal () =
  let d = Runtime.Pool.Deques.create ~lengths:[| 10; 0; 6 |] in
  let seen = Hashtbl.create 16 in
  let rec drain me =
    match Runtime.Pool.Deques.pop d ~me with
    | None -> ()
    | Some (owner, i) ->
        if me = 1 then checkb "domain 1 only steals" true (owner <> 1);
        checkb "no double grab" false (Hashtbl.mem seen (owner, i));
        Hashtbl.replace seen (owner, i) ();
        drain me
  in
  (* Domain 1 has an empty queue: everything it gets is stolen. *)
  drain 1;
  drain 0;
  drain 2;
  check "all items drained exactly once" 16 (Hashtbl.length seen)

(* ------------------------------------------------------------------ *)
(* Measure: footprint counters                                         *)
(* ------------------------------------------------------------------ *)

let touched_of ~universe l =
  let t = Intmath.Bitset.create ~universe in
  List.iter (Intmath.Bitset.add t) l;
  t

(* [|⋃ sets|], as the runtime counts it: the distinct elements of
   {!Runtime.Measure.sharing} with the sets as read rows. *)
let union_count (sets : Intmath.Bitset.t array) =
  let none =
    Array.map
      (fun (s : Intmath.Bitset.t) -> Intmath.Bitset.create ~universe:s.universe)
      sets
  in
  (Runtime.Measure.sharing ~reads:sets ~writes:none ~accumulates:none)
    .Runtime.Measure.distinct

let test_touched_exact () =
  check "exact distinct count" 4
    (Intmath.Bitset.cardinal
       (touched_of ~universe:1000 [ 3; 7; 3; 999; 7; 0 ]));
  (* Beyond 2^24 elements, where an estimate once replaced the count. *)
  let universe = (1 lsl 24) + 64 in
  let a = touched_of ~universe [ 0; 1 lsl 24; universe - 1; 0; universe - 1 ]
  and b = touched_of ~universe [ 1 lsl 24; 5; 5 ] in
  check "exact count over 2^24 elements" 3 (Intmath.Bitset.cardinal a);
  check "exact union over 2^24 elements" 4 (union_count [| a; b |]);
  checkb "rows of different universes rejected" true
    (match
       union_count
         [| touched_of ~universe:1000 [ 1 ]; touched_of ~universe:1001 [ 1 ] |]
     with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_union_count () =
  check "union of overlapping sets" 5
    (union_count
       [|
         touched_of ~universe:64 [ 1; 2; 3 ];
         touched_of ~universe:64 [ 3; 4; 5 ];
       |])

(* Three domains over 20 elements, across a byte boundary.  Element 3
   is written by 0 and read by 1, 12 written by 0 and 1 (a race), 14
   accumulated by 0 and 2 (contended), 5 written by 1 and read by 2:
   those four cross.  17 is written and read by 2 alone and 9 is only
   read, so they do not.  Domain 1 reads 3 from domain 0 and domain 2
   reads 5 from domain 1: one flow-in element each. *)
let test_sharing () =
  let set = touched_of ~universe:20 in
  let none = [| set []; set []; set [] |] in
  let reads = [| set [ 1; 2; 9 ]; set [ 3; 4 ]; set [ 5; 9; 17 ] |]
  and writes = [| set [ 3; 12 ]; set [ 5; 12 ]; set [ 17 ] |]
  and accumulates = [| set [ 14 ]; set []; set [ 14 ] |] in
  let s = Runtime.Measure.sharing ~reads ~writes ~accumulates in
  Alcotest.(check (array int))
    "footprints" [| 6; 4; 4 |] s.Runtime.Measure.footprints;
  check "distinct" 9 s.Runtime.Measure.distinct;
  check "elements that cross" 4 s.Runtime.Measure.crossing;
  Alcotest.(check (array int))
    "flow-in" [| 0; 1; 1 |] s.Runtime.Measure.flow_in;
  Alcotest.(check (list int)) "races" [ 12 ] s.Runtime.Measure.races;
  Alcotest.(check (list int)) "contended" [ 14 ] s.Runtime.Measure.contended;
  check "read by one domain or its writer, written by one" 3
    s.Runtime.Measure.read_written;
  let mixed =
    Runtime.Measure.sharing ~reads:none
      ~writes:[| set [ 3 ]; set []; set [] |]
      ~accumulates:[| set []; set [ 3 ]; set [] |]
  in
  Alcotest.(check (list int))
    "an accumulate meeting a plain write races" [ 3 ]
    mixed.Runtime.Measure.races;
  Alcotest.(check (list int)) "so it is not contended" []
    mixed.Runtime.Measure.contended;
  let alone =
    Runtime.Measure.sharing ~reads:[| set [ 3 ] |] ~writes:[| set [] |]
      ~accumulates:[| set [ 3 ] |]
  in
  check "one domain: nothing crosses" 0 alone.Runtime.Measure.crossing;
  check "one domain: read and accumulated" 1
    alone.Runtime.Measure.read_written;
  check "nothing read is written" 0
    (Runtime.Measure.sharing
       ~reads:[| set [ 0; 1 ]; set [ 1; 2 ] |]
       ~writes:[| set [ 7 ]; set [ 8; 19 ] |]
       ~accumulates:[| set [ 4 ]; set [] |])
      .Runtime.Measure.read_written;
  checkb "row counts must agree" true
    (match
       Runtime.Measure.sharing ~reads ~writes ~accumulates:[| set [] |]
     with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* The classification {!Runtime.Measure.sharing} makes in one word
   pass, element by element: per address, which domains read, plainly
   write and accumulate it. *)
let reference_sharing ~reads ~writes ~accumulates =
  let n = Array.length reads in
  let universe = if n = 0 then 0 else reads.(0).Intmath.Bitset.universe in
  let footprints = Array.make n 0 and flow_in = Array.make n 0 in
  let distinct = ref 0 and crossing = ref 0 and read_written = ref 0 in
  let races = ref [] and contended = ref [] in
  for a = universe - 1 downto 0 do
    let r p = Intmath.Bitset.mem reads.(p) a
    and w p = Intmath.Bitset.mem writes.(p) a in
    let x p = w p || Intmath.Bitset.mem accumulates.(p) a in
    let t p = r p || x p in
    let count f = List.length (List.filter f (List.init n Fun.id)) in
    let writers = count x and touchers = count t in
    Array.iteri (fun p f -> if t p then footprints.(p) <- f + 1) footprints;
    Array.iteri
      (fun p f ->
        if r p && List.exists (fun q -> q <> p && x q) (List.init n Fun.id)
        then flow_in.(p) <- f + 1)
      flow_in;
    if touchers > 0 then incr distinct;
    if writers > 0 && touchers >= 2 then incr crossing;
    if writers > 0 && count r > 0 then incr read_written;
    if writers >= 2 then
      if count w > 0 then races := a :: !races
      else contended := a :: !contended
  done;
  {
    Runtime.Measure.footprints;
    distinct = !distinct;
    flow_in;
    crossing = !crossing;
    read_written = !read_written;
    races = !races;
    contended = !contended;
  }

(* Random rows over one to four domains, on universes that end inside,
   at and just past a byte and a 64-bit word, and on one random size
   above 200.  Each
   row's density is drawn apart, so empty rows, sparse rows that rarely
   meet and dense rows that race and contend all occur. *)
let test_sharing_reference () =
  let rng = Random.State.make [| 29 |] in
  let row universe =
    let density = [| 0.0; 0.05; 0.3; 0.8 |].(Random.State.int rng 4) in
    touched_of ~universe
      (List.filter
         (fun _ -> Random.State.float rng 1.0 < density)
         (List.init universe Fun.id))
  in
  let ints = Alcotest.(array int) and addrs = Alcotest.(list int) in
  List.iter
    (fun universe ->
      for trial = 1 to 40 do
        let n = 1 + Random.State.int rng 4 in
        let rows () = Array.init n (fun _ -> row universe) in
        let reads = rows () and writes = rows () and accumulates = rows () in
        let got = Runtime.Measure.sharing ~reads ~writes ~accumulates
        and want = reference_sharing ~reads ~writes ~accumulates in
        let label f = Printf.sprintf "universe %d, P=%d, trial %d: %s"
            universe n trial f in
        Alcotest.check ints (label "footprints") want.footprints got.footprints;
        check (label "distinct") want.distinct got.distinct;
        Alcotest.check ints (label "flow-in") want.flow_in got.flow_in;
        check (label "crossing") want.crossing got.crossing;
        check (label "read_written") want.read_written got.read_written;
        Alcotest.check addrs (label "races") want.races got.races;
        Alcotest.check addrs (label "contended") want.contended got.contended
      done)
    [ 1; 7; 8; 9; 63; 64; 65; 129; 201 + Random.State.int rng 800 ]

(* ------------------------------------------------------------------ *)
(* Runtime vs simulator: the validation protocol                       *)
(* ------------------------------------------------------------------ *)

(* Small instances of gallery nests: the runtime's per-domain distinct
   elements must equal Machine.Sim's, domain by domain. *)
let agreement_nests =
  [
    ("example2", Programs.example2 ~n:40 ());
    ("example3", Programs.example3 ~n:24 ());
    ("matmul", Programs.matmul ~n:12 ());
    ("stencil5", Programs.stencil5 ~n:17 ~steps:2 ());
  ]

(* Run the nest once under the compile-time tiles (of [tile] when
   given) and validate that run. *)
let validate_run ?tile a =
  let r =
    Driver.execute ~config:{ Driver.default_exec_config with repeats = 1 }
      ?tile a
  in
  Driver.validate ?tile a ~steps:r.Runtime.Measure.steps
    ~operands:r.Runtime.Measure.operands

let test_runtime_agrees_with_sim () =
  List.iter
    (fun (name, nest) ->
      let a = Driver.analyze ~nprocs:4 nest in
      let v = validate_run a in
      checkb
        (Printf.sprintf "%s: runtime footprints = simulator footprints" name)
        true v.Runtime.Validate.footprints_agree;
      checkb (Printf.sprintf "%s: verdict ok" name) true
        (Runtime.Validate.ok v))
    agreement_nests

let test_tiled_prediction_matches_measurement () =
  (* For the interior-dominated example2 the Theorem 2 prediction is not
     just a bound: the measured per-domain footprint equals it. *)
  let a = Driver.analyze ~nprocs:4 (Programs.example2 ()) in
  let r =
    Driver.execute
      ~config:{ Driver.default_exec_config with repeats = 1 }
      a
  in
  match r.Runtime.Measure.predicted_per_domain with
  | None -> Alcotest.fail "tiled policy must carry a prediction"
  | Some predicted ->
      check "measured max footprint = Theorem 2 prediction" predicted
        (Runtime.Measure.max_footprint r)

let test_values_match_sequential () =
  let a = Driver.analyze ~nprocs:4 (Programs.example2 ~n:40 ()) in
  let v = validate_run a in
  checkb "race free" true v.Runtime.Validate.race_free;
  checkb "deterministic" true v.Runtime.Validate.deterministic;
  Alcotest.(check (option bool))
    "parallel values = sequential values" (Some true)
    v.Runtime.Validate.values_match

let test_reduction_contention_is_reported () =
  (* diag_accumulate writes one diagonal cell from many iterations: a
     legal shared accumulate, flagged but not a race. *)
  let nest = Programs.diag_accumulate ~n:16 () in
  let a = Driver.analyze ~nprocs:4 nest in
  let v = validate_run a in
  checkb "accumulates are not write races" true v.Runtime.Validate.race_free;
  checkb "contended accumulates reported" true
    (v.Runtime.Validate.shared_accumulates <> [])

(* Verdicts that find something are counted element by element: a tile
   that splits [j] leaves both domains writing every [A[i]]. *)
let test_positive_verdicts_are_exact () =
  let n = 8 and split = Tile.rect [| 8; 4 |] in
  let validate nest = validate_run ~tile:split (Driver.analyze ~nprocs:2 nest) in
  let counts = Alcotest.(check (list (pair string int))) in
  let v =
    validate
      (Parse.nest_of_string ~name:"rowsum"
         "doall i = 1 to 8\ndoall j = 1 to 8\nA[i] = X[i,j]\n")
  in
  counts "every A[i] is a write race" [ ("A", n) ] v.Runtime.Validate.write_races;
  counts "no accumulates" [] v.Runtime.Validate.shared_accumulates;
  checkb "not race free" false v.Runtime.Validate.race_free;
  checkb "verdict fails" false (Runtime.Validate.ok v);
  checkb "races say why the value check was skipped" true
    (List.mem "  value check skipped: write races"
       (String.split_on_char '\n'
          (Format.asprintf "%a" Runtime.Validate.pp v)));
  (* A plain write and an accumulate colliding on different arrays:
     S[i+j] is reached by both domains for i+j in 6 .. 12. *)
  let v =
    let open Dsl in
    let i = var 0 and j = var 1 in
    validate
      (nest ~name:"mixed"
         [ doall "i" 1 8; doall "j" 1 8 ]
         [ write "A" [ i ]; accumulate "S" [ i + j ]; read "X" [ i; j ] ])
  in
  counts "plain writes race" [ ("A", n) ] v.Runtime.Validate.write_races;
  counts "accumulates contend" [ ("S", n - 1) ]
    v.Runtime.Validate.shared_accumulates;
  checkb "not deterministic" false v.Runtime.Validate.deterministic;
  (* On one array, an element that one domain writes and another only
     accumulates is a race: A[1..4] is written by domain 0 alone. *)
  let v =
    let open Dsl in
    let i = var 0 and j = var 1 in
    validate
      (nest ~name:"overlap"
         [ doall "i" 1 8; doall "j" 1 8 ]
         [ write "A" [ j ]; accumulate "A" [ i ]; read "X" [ i; j ] ])
  in
  counts "a plain write makes a race" [ ("A", n) ]
    v.Runtime.Validate.write_races;
  counts "no accumulate is merely shared" []
    v.Runtime.Validate.shared_accumulates;
  (* relax_inplace writes only its own tile but reads its neighbours'. *)
  let v =
    validate_run
      (Driver.analyze ~nprocs:4 (Programs.relax_inplace ~n:19 ~steps:2 ()))
  in
  checkb "cross reads are race free" true v.Runtime.Validate.race_free;
  checkb "cross reads are not deterministic" false
    v.Runtime.Validate.deterministic;
  Alcotest.(check (option bool)) "value check skipped" None
    v.Runtime.Validate.values_match

(* The value check reads the operands the run left: a deterministic
   run's buffer matches the sequential reference, and the same buffer
   with one element changed fails the verdict. *)
let test_value_check_reads_operands () =
  let a = Driver.analyze ~nprocs:2 (Programs.stencil5 ~n:17 ~steps:2 ()) in
  let r =
    Driver.execute ~config:{ Driver.default_exec_config with repeats = 1 } a
  in
  let validate operands =
    Driver.validate a ~steps:r.Runtime.Measure.steps ~operands
  in
  let v = validate r.Runtime.Measure.operands in
  checkb "deterministic" true v.Runtime.Validate.deterministic;
  Alcotest.(check (option bool))
    "the run's operands match" (Some true) v.Runtime.Validate.values_match;
  checkb "verdict ok" true (Runtime.Validate.ok v);
  let changed = Array.copy r.Runtime.Measure.operands in
  let k = Array.length changed / 2 in
  changed.(k) <- changed.(k) +. 1.0;
  let v = validate changed in
  Alcotest.(check (option bool))
    "one element changed" (Some false) v.Runtime.Validate.values_match;
  checkb "verdict fails" false (Runtime.Validate.ok v)

let test_dynamic_policies_execute_everything () =
  let nest = Programs.example2 ~n:40 () in
  let trip = Nest.iterations nest in
  let a = Driver.analyze ~nprocs:4 nest in
  let run policy =
    Driver.execute
      ~config:{ Driver.default_exec_config with policy; repeats = 1 }
      a
  in
  (* Whatever the schedule, the union of touched elements is the same
     set - only its distribution over domains changes. *)
  let tiled_union = (run Driver.Tiled).Runtime.Measure.distinct_total in
  List.iter
    (fun policy ->
      let r = run policy in
      let executed =
        Array.fold_left
          (fun acc (d : Runtime.Measure.domain_stat) -> acc + d.iterations)
          0 r.Runtime.Measure.per_domain
      in
      check "every iteration executed exactly once" trip executed;
      check "union footprint matches the tiled run" tiled_union
        r.Runtime.Measure.distinct_total)
    [ Driver.Cyclic; Driver.Block_cyclic 7; Driver.Guided;
      Driver.Work_steal 5 ]

(* ------------------------------------------------------------------ *)
(* Work: index ranges and assignments as boxes                         *)
(* ------------------------------------------------------------------ *)

let points_of_boxes boxes =
  let pts = ref [] in
  List.iter
    (fun b -> Runtime.Exec.iter_box b (fun p -> pts := Array.copy p :: !pts))
    boxes;
  List.rev !pts

let test_iter_range_decodes () =
  (* Every index range of a box decodes to at most 2d - 1 boxes holding
     exactly those positions of its lexicographic order, in order. *)
  let b = [| (2, 4); (-1, 2); (5, 7) |] in
  let all = Array.of_list (points_of_boxes [ b ]) in
  let n = Array.length all in
  let range = Runtime.Exec.iter_range b in
  for lo = 0 to n do
    for hi = lo to n do
      let boxes = ref [] in
      range lo hi (fun bx -> boxes := Array.copy bx :: !boxes);
      let boxes = List.rev !boxes in
      checkb "at most 2d - 1 boxes" true (List.length boxes <= 5);
      checkb
        (Printf.sprintf "positions %d..%d in order" lo (hi - 1))
        true
        (points_of_boxes boxes = Array.to_list (Array.sub all lo (hi - lo)))
    done
  done

let test_static_tiles () =
  (* Each domain's boxes become one tile, owned by it, as given and in
     order: nothing is merged, reordered or dropped. *)
  let a =
    [|
      [| [| (1, 1); (1, 3) |]; [| (2, 2); (1, 1) |]; [| (1, 1); (4, 5) |] |];
      [||];
      [| [| (3, 4); (0, 2) |] |];
    |]
  in
  match Runtime.Exec.static_of_assignment a with
  | Runtime.Exec.Tiled { tiles; owners; steal = false } ->
      checkb "one tile per domain" true (owners = [| 0; 1; 2 |]);
      checkb "the boxes as given, in order" true (tiles = a)
  | _ -> Alcotest.fail "static tiled work"

(* ------------------------------------------------------------------ *)
(* Codegen.load_balance regression (satellite)                         *)
(* ------------------------------------------------------------------ *)

let test_load_balance_never_nan () =
  (* More processors than iterations: min is 0, the ratio is finite. *)
  let nest = Programs.example2 ~n:3 () in
  let sched = Codegen.make nest (Tile.rect [| 1; 3 |]) ~nprocs:8 in
  let mn, mx, imb = Codegen.load_balance sched in
  check "some processor is idle" 0 mn;
  checkb "max positive" true (mx > 0);
  checkb "imbalance not NaN" false (Float.is_nan imb);
  (* imbalance = max / (total / nprocs) = 3 / (9/8) *)
  Alcotest.(check (float 1e-9)) "true ratio" (3.0 /. (9.0 /. 8.0)) imb

let () =
  Alcotest.run "runtime"
    [
      ( "pool",
        [
          Alcotest.test_case "dispatch to all domains" `Quick
            test_pool_runs_all_domains;
          Alcotest.test_case "barrier separates phases" `Quick
            test_pool_barrier_separates_phases;
          Alcotest.test_case "job exception re-raised" `Quick
            test_pool_reraises_job_exception;
          Alcotest.test_case "first of two exceptions wins" `Quick
            test_pool_first_exception_wins;
          Alcotest.test_case "survivors observe Aborted" `Quick
            test_pool_survivors_observe_abort;
          Alcotest.test_case "with_pool shuts down on exception" `Quick
            test_with_pool_shuts_down_on_exception;
          Alcotest.test_case "watched run" `Quick test_watched_run;
          Alcotest.test_case "watched run past FD_SETSIZE" `Quick
            test_watched_run_past_fd_setsize;
          Alcotest.test_case "counter covers range" `Quick
            test_counter_covers_range;
          Alcotest.test_case "deques cover and steal" `Quick
            test_deques_cover_and_steal;
        ] );
      ( "measure",
        [
          Alcotest.test_case "exact counters" `Quick test_touched_exact;
          Alcotest.test_case "union cardinality" `Quick test_union_count;
          Alcotest.test_case "what crosses domains" `Quick test_sharing;
          Alcotest.test_case "one pass = element-wise reference" `Quick
            test_sharing_reference;
        ] );
      ( "validation",
        [
          Alcotest.test_case "runtime = simulator footprints" `Quick
            test_runtime_agrees_with_sim;
          Alcotest.test_case "Theorem 2 prediction = measurement" `Quick
            test_tiled_prediction_matches_measurement;
          Alcotest.test_case "values match sequential" `Quick
            test_values_match_sequential;
          Alcotest.test_case "reduction contention reported" `Quick
            test_reduction_contention_is_reported;
          Alcotest.test_case "positive verdicts are exact" `Quick
            test_positive_verdicts_are_exact;
          Alcotest.test_case "dynamic policies execute everything" `Quick
            test_dynamic_policies_execute_everything;
          Alcotest.test_case "value check reads the run's operands" `Quick
            test_value_check_reads_operands;
        ] );
      ( "work",
        [
          Alcotest.test_case "index ranges decode to boxes" `Quick
            test_iter_range_decodes;
          Alcotest.test_case "boxes: one tile per domain" `Quick
            test_static_tiles;
        ] );
      ( "codegen regression",
        [
          Alcotest.test_case "load_balance never NaN" `Quick
            test_load_balance_never_nan;
        ] );
    ]
