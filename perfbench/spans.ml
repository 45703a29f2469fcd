(* Benchmark-side spans around calls into each layer: name, start, end
   and parent, kept in memory and reduced to per-name self times when a
   traced sample ends.  A span's self time is its duration minus the
   durations of its direct children.  Single-domain by design: every
   layer call the benchmark wraps runs on the calling domain. *)

type span = { id : int; name : string; start : float; stop : float; parent : int }
(** Ids count up in opening order; [parent] is the enclosing span's id,
    [-1] at the root. *)

type t = { mutable spans : span list; mutable next : int; mutable open_ : int list }

let create () = { spans = []; next = 0; open_ = [] }

let span t name f =
  let id = t.next in
  t.next <- id + 1;
  let parent = match t.open_ with p :: _ -> p | [] -> -1 in
  t.open_ <- id :: t.open_;
  let start = Runtime.Mclock.now () in
  let v = f () in
  let stop = Runtime.Mclock.now () in
  t.open_ <- List.tl t.open_;
  t.spans <- { id; name; start; stop; parent } :: t.spans;
  v

let dur s = s.stop -. s.start

(* Self time summed per span name. *)
let self_times t =
  let child = Array.make t.next 0.0 in
  List.iter
    (fun s -> if s.parent >= 0 then child.(s.parent) <- child.(s.parent) +. dur s)
    t.spans;
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let prev = Option.value ~default:0.0 (Hashtbl.find_opt tbl s.name) in
      Hashtbl.replace tbl s.name (prev +. dur s -. child.(s.id)))
    t.spans;
  tbl

(* Total duration summed per span name. *)
let duration t name =
  List.fold_left (fun acc s -> if s.name = name then acc +. dur s else acc) 0.0 t.spans
