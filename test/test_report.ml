(* Tests for the hardened report serialization: Report.to_json must be
   strictly valid JSON even for reports carrying non-finite floats and
   control characters, verified by round-tripping through a
   deliberately strict hand-written JSON parser (no nan/inf literals,
   no unescaped control characters, no trailing garbage).  The same
   parser validates Trace.to_chrome_json and the Json printer behind
   both. *)

module Fault = Runtime.Fault
module Json = Runtime.Json
module Report = Runtime.Report
module Trace = Runtime.Trace

let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* A strict JSON parser (RFC 8259 subset, no extensions)               *)
(* ------------------------------------------------------------------ *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

exception Bad of string

let parse_json (s : string) : json =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Bad (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %C" c)
  in
  let skip_ws () =
    while
      !pos < n
      && match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
    do
      advance ()
    done
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      let c = s.[!pos] in
      advance ();
      if c = '"' then Buffer.contents b
      else if c = '\\' then begin
        (if !pos >= n then fail "dangling escape");
        let e = s.[!pos] in
        advance ();
        (match e with
        | '"' -> Buffer.add_char b '"'
        | '\\' -> Buffer.add_char b '\\'
        | '/' -> Buffer.add_char b '/'
        | 'b' -> Buffer.add_char b '\b'
        | 'f' -> Buffer.add_char b '\012'
        | 'n' -> Buffer.add_char b '\n'
        | 'r' -> Buffer.add_char b '\r'
        | 't' -> Buffer.add_char b '\t'
        | 'u' ->
            if !pos + 4 > n then fail "truncated \\u escape";
            let hex = String.sub s !pos 4 in
            pos := !pos + 4;
            let code =
              try int_of_string ("0x" ^ hex)
              with _ -> fail "bad \\u escape"
            in
            (* Test inputs only use BMP < 0x80 escapes. *)
            if code < 0x80 then Buffer.add_char b (Char.chr code)
            else fail "non-ASCII \\u escape unsupported by this parser"
        | _ -> fail "bad escape");
        go ()
      end
      else if Char.code c < 0x20 then
        fail "unescaped control character in string"
      else begin
        Buffer.add_char b c;
        go ()
      end
    in
    go ()
  in
  let parse_number () =
    let start = !pos in
    if peek () = Some '-' then advance ();
    let digits () =
      let d0 = !pos in
      while
        !pos < n && match s.[!pos] with '0' .. '9' -> true | _ -> false
      do
        advance ()
      done;
      if !pos = d0 then fail "expected digits"
    in
    digits ();
    if peek () = Some '.' then begin
      advance ();
      digits ()
    end;
    (match peek () with
    | Some ('e' | 'E') ->
        advance ();
        (match peek () with
        | Some ('+' | '-') -> advance ()
        | _ -> ());
        digits ()
    | _ -> ());
    Num (float_of_string (String.sub s start (!pos - start)))
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '"' -> Str (parse_string ())
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let rec members acc =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                members ((k, v) :: acc)
            | Some '}' ->
                advance ();
                List.rev ((k, v) :: acc)
            | _ -> fail "expected ',' or '}'"
          in
          Obj (members [])
        end
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          Arr []
        end
        else begin
          let rec elements acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                elements (v :: acc)
            | Some ']' ->
                advance ();
                List.rev (v :: acc)
            | _ -> fail "expected ',' or ']'"
          in
          Arr (elements [])
        end
    | Some 't' ->
        if !pos + 4 <= n && String.sub s !pos 4 = "true" then begin
          pos := !pos + 4;
          Bool true
        end
        else fail "bad literal"
    | Some 'f' ->
        if !pos + 5 <= n && String.sub s !pos 5 = "false" then begin
          pos := !pos + 5;
          Bool false
        end
        else fail "bad literal"
    | Some 'n' ->
        if !pos + 4 <= n && String.sub s !pos 4 = "null" then begin
          pos := !pos + 4;
          Null
        end
        else fail "bad literal"
    | Some ('-' | '0' .. '9') -> parse_number ()
    | _ -> fail "expected a value"
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let field obj k =
  match obj with
  | Obj members -> (
      match List.assoc_opt k members with
      | Some v -> v
      | None -> Alcotest.failf "missing field %S" k)
  | _ -> Alcotest.failf "not an object (looking for %S)" k

(* ------------------------------------------------------------------ *)
(* Round trip                                                          *)
(* ------------------------------------------------------------------ *)

(* A report deliberately stuffed with everything that used to corrupt
   the JSON: nan/inf wall times and checksums, control characters and
   quotes in strings. *)
let hostile_report () =
  let attempt =
    {
      Report.attempt = 0;
      nprocs = 2;
      outcome = Report.Failed "boom\x01 with \ttab and \"quotes\"";
      events =
        [
          Report.Injected
            { action = Fault.Crash; site = 0; domain = 1; step = 1 };
          Report.Crashed
            { domain = 1; step = 1; exn = "Weird\x02exn\nnewline" };
        ];
      tiles_total = 4;
      tiles_reexecuted = 1;
      retired_domains = [ 1 ];
      backoff_ms = 0;
      wall_seconds = Float.nan;
    }
  in
  {
    Report.name = "nest\x1fwith\x07control \"chars\"";
    policy = "retry:3:25";
    plan = "crash@d1s1c0";
    deadline_ms = 100;
    steps = 2;
    tile_retry = true;
    attempts = [ attempt ];
    completed = false;
    final_nprocs = 2;
    total_wall_seconds = Float.infinity;
    checksum = Float.neg_infinity;
    covered_exactly_once = false;
    metrics = None;
  }

let test_hostile_report_round_trips () =
  let r = hostile_report () in
  let json =
    match parse_json (Report.to_json r) with
    | j -> j
    | exception Bad msg -> Alcotest.failf "report JSON is not strict: %s" msg
  in
  (* Strings with control characters survive escaping byte for byte. *)
  (match field json "name" with
  | Str s -> checks "name round-trips" r.Report.name s
  | _ -> Alcotest.fail "name not a string");
  (* Non-finite floats become null, never nan/inf literals. *)
  checkb "inf total wall -> null" true (field json "total_wall_seconds" = Null);
  checkb "-inf checksum -> null" true (field json "checksum" = Null);
  checkb "no metrics -> null" true (field json "metrics" = Null);
  match field json "attempts" with
  | Arr [ att ] -> (
      checkb "nan attempt wall -> null" true (field att "wall_seconds" = Null);
      match field att "events" with
      | Arr [ injected; crashed ] ->
          checkb "site serialized" true (field injected "site" = Num 0.0);
          (match field crashed "exn" with
          | Str s -> checks "exn round-trips" "Weird\x02exn\nnewline" s
          | _ -> Alcotest.fail "exn not a string")
      | _ -> Alcotest.fail "expected 2 events")
  | _ -> Alcotest.fail "expected 1 attempt"

let test_live_report_with_metrics_round_trips () =
  (* A real traced resilient run end to end: injected fault, retry,
     metrics summary - all through the strict parser. *)
  let nest = Loopart.Programs.stencil5 ~n:17 ~steps:2 () in
  let nprocs = 4 in
  let a = Loopart.Driver.analyze ~nprocs nest in
  let trace = Trace.create ~domains:nprocs () in
  let config =
    { Loopart.Driver.default_exec_config with Loopart.Driver.trace = Some trace }
  in
  (* A wildcard crash fires on the first claim by whichever domain gets
     there - deterministic even when a tiny problem leaves some domain
     without any claims at all. *)
  let plan =
    match Fault.of_string "crash" with
    | Ok p -> p
    | Error e -> Alcotest.failf "bad plan: %s" e
  in
  let report, _ = Loopart.Driver.execute_resilient ~config ~plan a in
  checkb "completed" true report.Runtime.Report.completed;
  let json =
    match parse_json (Report.to_json report) with
    | j -> j
    | exception Bad msg -> Alcotest.failf "live report JSON not strict: %s" msg
  in
  (match field json "metrics" with
  | Obj _ as m ->
      (match field m "tiles_run" with
      | Num tr ->
          let s = Trace.summary trace in
          checkb "metrics tiles_run matches the recorder" true
            (int_of_float tr = s.Trace.tiles_run)
      | _ -> Alcotest.fail "tiles_run not a number");
      checkb "faults injected recorded" true
        (field m "faults_injected" = Num 1.0)
  | Null -> Alcotest.fail "traced report lost its metrics"
  | _ -> Alcotest.fail "metrics not an object");
  match field json "attempts" with
  | Arr (_ :: _) -> ()
  | _ -> Alcotest.fail "no attempts"

let test_chrome_trace_is_strict_json () =
  let trace = Trace.create ~domains:2 () in
  Trace.begin_span trace 0 Trace.Tile ~arg:1;
  Trace.begin_span trace 0 Trace.Exec ~arg:1;
  Trace.end_span trace 0;
  Trace.end_span trace 0;
  Trace.instant trace 1 Trace.Watchdog ~arg:2;
  match parse_json (Trace.to_chrome_json trace) with
  | exception Bad msg -> Alcotest.failf "chrome JSON is not strict: %s" msg
  | json -> (
      match field json "traceEvents" with
      | Arr evs ->
          Alcotest.(check int) "three events" 3 (List.length evs);
          List.iter
            (fun e ->
              checkb "complete event" true (field e "ph" = Str "X");
              match (field e "ts", field e "dur") with
              | Num ts, Num dur ->
                  checkb "non-negative timestamps" true (ts >= 0.0 && dur >= 0.0)
              | _ -> Alcotest.fail "ts/dur not numbers")
            evs
      | _ -> Alcotest.fail "traceEvents not an array")

let test_parser_rejects_bare_nan () =
  (* Sanity-check the checker itself: the old serializer's output shape
     must actually fail this parser. *)
  let rejects s =
    match parse_json s with exception Bad _ -> true | _ -> false
  in
  checkb "bare nan" true (rejects "{\"x\": nan}");
  checkb "bare inf" true (rejects "{\"x\": inf}");
  checkb "raw control char" true (rejects "{\"x\": \"a\x01b\"}");
  checkb "trailing garbage" true (rejects "{} {}");
  checkb "valid json accepted" false
    (rejects "{\"x\": [1.5e-3, null, true, \"\\u0007\"]}")

(* ------------------------------------------------------------------ *)
(* The printer itself                                                  *)
(* ------------------------------------------------------------------ *)

let reparse v =
  match parse_json (Json.to_string v) with
  | j -> j
  | exception Bad msg -> Alcotest.failf "printer output is not strict: %s" msg

let test_printer_strings_round_trip () =
  let every_byte = String.init 256 Char.chr ^ "\"\\" in
  match reparse (Json.Obj [ (every_byte, Json.String every_byte) ]) with
  | Obj [ (k, Str v) ] ->
      checks "key round-trips byte for byte" every_byte k;
      checks "value round-trips byte for byte" every_byte v
  | _ -> Alcotest.fail "expected a one-field object"

let test_printer_non_finite_is_null () =
  List.iter
    (fun x ->
      checkb (Printf.sprintf "%f -> null" x) true (reparse (Json.Float x) = Null))
    [ Float.nan; Float.infinity; Float.neg_infinity ]

let test_printer_floats_round_trip () =
  List.iter
    (fun (x, shortest) ->
      checks "shortest decimal" shortest (Json.to_string (Json.Float x));
      match reparse (Json.Float x) with
      | Num y ->
          checkb (shortest ^ " round-trips bit for bit") true
            (Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
      | _ -> Alcotest.failf "%s did not parse as a number" shortest)
    [
      (0.1, "0.1");
      (-0.0, "-0");
      (5e-324, "5e-324");
      (Float.max_float, "1.7976931348623157e+308");
      (1e-7, "1e-07");
      (1234567.891, "1234567.891");
    ]

let () =
  Alcotest.run "report-json"
    [
      ( "round-trip",
        [
          Alcotest.test_case "hostile report is strict JSON" `Quick
            test_hostile_report_round_trips;
          Alcotest.test_case "live traced report is strict JSON" `Quick
            test_live_report_with_metrics_round_trips;
          Alcotest.test_case "chrome trace is strict JSON" `Quick
            test_chrome_trace_is_strict_json;
          Alcotest.test_case "parser rejects the old failure modes" `Quick
            test_parser_rejects_bare_nan;
        ] );
      ( "printer",
        [
          Alcotest.test_case "every byte round-trips" `Quick
            test_printer_strings_round_trip;
          Alcotest.test_case "non-finite floats print as null" `Quick
            test_printer_non_finite_is_null;
          Alcotest.test_case "floats print shortest and round-trip" `Quick
            test_printer_floats_round_trip;
        ] );
    ]
