type geometry = Infinite | Finite of { sets : int; ways : int }

type state = Never | Shared | Modified | Lost_invalidation | Lost_eviction

(* [table] holds byte [line * nprocs + p].  A finite geometry keeps, per
   (processor, set), [ways] slots of line ids, most recent first, with
   the empty slots ([-1]) at the tail: set [s] of [p] is
   [lru.((p * sets + s) * ways) ..].  An infinite geometry has [ways = 0]
   and no slots. *)
type t = {
  nprocs : int;
  table : Bytes.t;
  sets : int;
  ways : int;
  lru : int array;
}

let create geometry ~nprocs ~lines =
  if nprocs < 1 || lines < 0 then
    invalid_arg "Cache.create: nprocs must be positive, lines non-negative";
  let sets, ways, lru =
    match geometry with
    | Infinite -> (1, 0, [||])
    | Finite { sets; ways } ->
        if sets < 1 || ways < 1 then
          invalid_arg "Cache.create: sets and ways must be positive";
        (sets, ways, Array.make (nprocs * sets * ways) (-1))
  in
  { nprocs; table = Bytes.make (lines * nprocs) '\000'; sets; ways; lru }

let to_byte = function
  | Never -> '\000'
  | Shared -> '\001'
  | Modified -> '\002'
  | Lost_invalidation -> '\003'
  | Lost_eviction -> '\004'

let of_byte = function
  | '\000' -> Never
  | '\001' -> Shared
  | '\002' -> Modified
  | '\003' -> Lost_invalidation
  | _ -> Lost_eviction

let state t p line = of_byte (Bytes.get t.table ((line * t.nprocs) + p))

let set_state t p line s =
  Bytes.set t.table ((line * t.nprocs) + p) (to_byte s)

let resident t p line =
  match state t p line with Shared | Modified -> true | _ -> false

let sharers t line =
  let rec from p acc =
    if p < 0 then acc
    else from (p - 1) (if resident t p line then p :: acc else acc)
  in
  from (t.nprocs - 1) []

let owner t line =
  let rec from p =
    if p = t.nprocs then None
    else if state t p line = Modified then Some p
    else from (p + 1)
  in
  from 0

(* First slot of [line]'s set in [p]'s cache, and the line's slot in it
   ([ways] when absent). *)
let base t p line = ((p * t.sets) + (line mod t.sets)) * t.ways

let slot t b line =
  let rec find i =
    if i = t.ways || t.lru.(b + i) = line then i else find (i + 1)
  in
  find 0

(* Put [line] first, shifting slots [0 .. i - 1] down one (slot [i] is
   overwritten). *)
let promote t b i line =
  Array.blit t.lru b t.lru (b + 1) i;
  t.lru.(b) <- line

let touch t p line =
  if t.ways > 0 then
    let b = base t p line in
    promote t b (slot t b line) line

let fill t p line s =
  set_state t p line s;
  if t.ways = 0 then None
  else begin
    let b = base t p line in
    let last = t.lru.(b + t.ways - 1) in
    promote t b (t.ways - 1) line;
    if last < 0 then None
    else begin
      let held = state t p last in
      set_state t p last Lost_eviction;
      Some (last, held)
    end
  end

let invalidate t p line =
  set_state t p line Lost_invalidation;
  if t.ways > 0 then begin
    let b = base t p line in
    let i = slot t b line in
    Array.blit t.lru (b + i + 1) t.lru (b + i) (t.ways - i - 1);
    t.lru.(b + t.ways - 1) <- -1
  end

let occupancy t p =
  let n = ref 0 in
  for line = 0 to (Bytes.length t.table / t.nprocs) - 1 do
    if resident t p line then incr n
  done;
  !n
