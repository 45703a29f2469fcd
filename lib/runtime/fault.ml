type action = Crash | Stall of int | Corrupt

type injection = {
  action : action;
  domain : int option;
  step : int;
  claim : int;
}

type plan = { injections : injection array; armed : bool Atomic.t array }

let validate (i : injection) =
  (match i.domain with
  | Some d when d < 0 -> invalid_arg "Fault.make: negative domain"
  | Some _ | None -> ());
  if i.step < 1 then invalid_arg "Fault.make: step < 1";
  if i.claim < 0 then invalid_arg "Fault.make: negative claim";
  match i.action with
  | Stall ms when ms < 0 -> invalid_arg "Fault.make: negative stall"
  | Stall _ | Crash | Corrupt -> ()

let make injections =
  List.iter validate injections;
  let injections = Array.of_list injections in
  {
    injections;
    armed = Array.map (fun _ -> Atomic.make true) injections;
  }

let none = make []
let injections p = Array.to_list p.injections

(* The CAS on [armed.(k)] is what makes every plan entry one-shot
   globally - across concurrent claimers, across retried attempts, and
   across degrade re-partitions.  The latter matters for wildcard
   sites: when the domain count halves, claim ordinals are re-dealt and
   a site like [crash@s1c0] is reached again by the smaller pool, but
   its entry is already consumed, so it cannot double-fire.  The
   returned entry index is the identity {!Report.Injected} carries and
   the fuzz oracle's <= 1-hit-per-entry assertion checks. *)
let at_site (i : injection) ~domain ~step ~claim =
  (match i.domain with None -> true | Some d -> d = domain)
  && i.step = step && i.claim = claim

let fire p ~domain ~step ~claim =
  let found = ref None in
  Array.iteri
    (fun k i ->
      if
        !found = None
        && at_site i ~domain ~step ~claim
        && Atomic.compare_and_set p.armed.(k) true false
      then found := Some (k, i.action))
    p.injections;
  !found

let armed p ~domain ~step ~claim =
  Array.exists2
    (fun i a -> at_site i ~domain ~step ~claim && Atomic.get a)
    p.injections p.armed

let reset p = Array.iter (fun a -> Atomic.set a true) p.armed

let action_to_string = function
  | Crash -> "crash"
  | Stall ms -> Printf.sprintf "stall:%d" ms
  | Corrupt -> "corrupt"

let injection_to_string (i : injection) =
  Printf.sprintf "%s@%ss%dc%d"
    (action_to_string i.action)
    (match i.domain with None -> "" | Some d -> Printf.sprintf "d%d" d)
    i.step i.claim

let to_string p =
  String.concat ";" (List.map injection_to_string (injections p))

let pp ppf p = Format.pp_print_string ppf (to_string p)

(* Parsing: ACTION[@dD[sS][cC]].  Hand-rolled so a malformed plan string
   yields a one-line message, never an exception. *)

let parse_action s =
  match String.split_on_char ':' s with
  | [ "crash" ] -> Ok Crash
  | [ "corrupt" ] -> Ok Corrupt
  | [ "stall"; ms ] -> (
      match int_of_string_opt ms with
      | Some ms when ms >= 0 -> Ok (Stall ms)
      | Some _ | None -> Error (Printf.sprintf "bad stall duration %S" ms))
  | _ -> Error (Printf.sprintf "unknown action %S (crash | stall:MS | corrupt)" s)

(* The site part is a concatenation of dN, sN, cN markers. *)
let parse_site s =
  let n = String.length s in
  let domain = ref None and step = ref 1 and claim = ref 0 in
  let error = ref None in
  let pos = ref 0 in
  while !error = None && !pos < n do
    let key = s.[!pos] in
    let start = !pos + 1 in
    let stop = ref start in
    while
      !stop < n && (match s.[!stop] with '0' .. '9' -> true | _ -> false)
    do
      incr stop
    done;
    (match
       if !stop = start then None
       else int_of_string_opt (String.sub s start (!stop - start))
     with
    | None -> error := Some (Printf.sprintf "bad site %S (want dD[sS][cC])" s)
    | Some v -> (
        match key with
        | 'd' -> domain := Some v
        | 's' -> step := v
        | 'c' -> claim := v
        | _ -> error := Some (Printf.sprintf "bad site key %C in %S" key s)));
    pos := !stop
  done;
  match !error with
  | Some e -> Error e
  | None -> Ok (!domain, !step, !claim)

let parse_injection s =
  let action_s, site_s =
    match String.index_opt s '@' with
    | None -> (s, "")
    | Some i ->
        (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))
  in
  match parse_action action_s with
  | Error e -> Error e
  | Ok action -> (
      match parse_site site_s with
      | Error e -> Error e
      | Ok (domain, step, claim) ->
          if step < 1 then Error (Printf.sprintf "step must be >= 1 in %S" s)
          else Ok { action; domain; step; claim })

let of_string s =
  let parts =
    List.filter (fun p -> p <> "") (String.split_on_char ';' (String.trim s))
  in
  let rec go acc = function
    | [] -> Ok (make (List.rev acc))
    | p :: rest -> (
        match parse_injection (String.trim p) with
        | Ok i -> go (i :: acc) rest
        | Error e -> Error e)
  in
  go [] parts
