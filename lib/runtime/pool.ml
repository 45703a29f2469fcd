exception Aborted

(* Spin with capped exponential backoff: on an oversubscribed host
   (more domains than cores) a pure spin waits out whole scheduling
   quanta, so after a bounded number of relaxes we yield, then sleep
   increasingly long - capped so a waiter still polls its abort flag
   often enough to stay responsive. *)
let backoff ?yielded spins =
  if spins < 64 then Domain.cpu_relax ()
  else begin
    (match yielded with Some r -> incr r | None -> ());
    if spins < 512 then Unix.sleepf 0.0 (* sched_yield: give up the quantum *)
    else
      let k = min ((spins - 512) / 64) 5 in
      Unix.sleepf (0.000_05 *. float_of_int (1 lsl k))
  end

module Barrier = struct
  type b = {
    parties : int;
    count : int Atomic.t;
    phase : bool Atomic.t;
    abort : bool Atomic.t;
  }

  let create parties =
    {
      parties;
      count = Atomic.make parties;
      phase = Atomic.make false;
      abort = Atomic.make false;
    }

  let arrive b ~sense ~yielded ~release =
    let my = not !sense in
    sense := my;
    if Atomic.get b.abort then raise Aborted;
    if Atomic.fetch_and_add b.count (-1) = 1 then begin
      (* Last arrival: everyone else is parked, so [release] runs alone;
         then reset the count and flip the phase to let them go. *)
      release ();
      Atomic.set b.count b.parties;
      Atomic.set b.phase my
    end
    else begin
      let spins = ref 0 in
      while Atomic.get b.phase <> my && not (Atomic.get b.abort) do
        backoff ~yielded !spins;
        incr spins
      done;
      if Atomic.get b.phase <> my then raise Aborted
    end

  let wait ?(yielded = ref 0) b ~sense = arrive b ~sense ~yielded ~release:ignore
end

type job = int -> Barrier.b -> unit

type t = {
  n : int;
  mutex : Mutex.t;
  work : Condition.t;
  finished : Condition.t;
  mutable epoch : int;
  mutable job : (job * Barrier.b) option;
  mutable remaining : int;
  mutable stop : bool;
  mutable first_exn : exn option;
  mutable domains : unit Domain.t array;
  mutable bell : (Unix.file_descr * Unix.file_descr) option;  (** see [run] *)
}

let worker t p =
  let my_epoch = ref 0 in
  let continue = ref true in
  while !continue do
    Mutex.lock t.mutex;
    while t.epoch = !my_epoch && not t.stop do
      Condition.wait t.work t.mutex
    done;
    if t.stop then begin
      Mutex.unlock t.mutex;
      continue := false
    end
    else begin
      my_epoch := t.epoch;
      let f, barrier = Option.get t.job in
      Mutex.unlock t.mutex;
      (try f p barrier with
      | Aborted -> ()
      | exn ->
          (* Release siblings parked at the barrier, then record the
             first real failure for [run] to re-raise. *)
          Atomic.set barrier.Barrier.abort true;
          Mutex.lock t.mutex;
          if t.first_exn = None then t.first_exn <- Some exn;
          Mutex.unlock t.mutex);
      Mutex.lock t.mutex;
      t.remaining <- t.remaining - 1;
      if t.remaining = 0 then begin
        Condition.broadcast t.finished;
        Option.iter (fun (_, w) -> ignore (Unix.write_substring w "." 0 1)) t.bell
      end;
      Mutex.unlock t.mutex
    end
  done

let create n =
  if n < 1 then invalid_arg "Pool.create: need at least one domain";
  let t =
    {
      n;
      mutex = Mutex.create ();
      work = Condition.create ();
      finished = Condition.create ();
      epoch = 0;
      job = None;
      remaining = 0;
      stop = false;
      first_exn = None;
      domains = [||];
      bell = None;
    }
  in
  t.domains <- Array.init n (fun p -> Domain.spawn (fun () -> worker t p));
  t

let size t = t.n

let run ?watch t f =
  Mutex.lock t.mutex;
  if t.stop then begin
    Mutex.unlock t.mutex;
    invalid_arg "Pool.run: pool is shut down"
  end;
  (match Option.map (fun _ -> Unix.pipe ~cloexec:true ()) watch with
  | exception e -> Mutex.unlock t.mutex; raise e
  | bell -> t.bell <- bell);
  t.job <- Some (f, Barrier.create t.n);
  t.epoch <- t.epoch + 1;
  t.remaining <- t.n;
  t.first_exn <- None;
  Condition.broadcast t.work;
  while t.remaining > 0 do
    match (watch, t.bell) with
    | Some (period, probe), Some (r, _) ->
        (* Sleep until the last worker rings the bell or [period] ends;
           should select fail (a descriptor past FD_SETSIZE), poll. *)
        Mutex.unlock t.mutex;
        (try ignore (Unix.select [ r ] [] [] period)
         with Unix.Unix_error _ -> backoff max_int);
        probe ();
        Mutex.lock t.mutex
    | _ -> Condition.wait t.finished t.mutex
  done;
  Option.iter (fun (r, w) -> Unix.close r; Unix.close w) t.bell;
  t.bell <- None;
  let exn = t.first_exn in
  t.job <- None;
  t.first_exn <- None;
  Mutex.unlock t.mutex;
  match exn with None -> () | Some e -> raise e

let shutdown t =
  Mutex.lock t.mutex;
  if not t.stop then begin
    t.stop <- true;
    Condition.broadcast t.work;
    Mutex.unlock t.mutex;
    Array.iter Domain.join t.domains
  end
  else Mutex.unlock t.mutex

let with_pool n f =
  let t = create n in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

module Counter = struct
  type c = { total : int; pos : int Atomic.t }

  let create ~total =
    if total < 0 then invalid_arg "Pool.Counter.create: total < 0";
    { total; pos = Atomic.make 0 }

  let rec next c ~chunk =
    let pos = Atomic.get c.pos in
    if pos >= c.total then None
    else
      let remaining = c.total - pos in
      let k = min remaining (max 1 (chunk ~remaining)) in
      if Atomic.compare_and_set c.pos pos (pos + k) then Some (pos, pos + k)
      else next c ~chunk

  let reset c = Atomic.set c.pos 0
end

module Deques = struct
  type queue = {
    length : int;
    mutable head : int;  (** next index the owner pops *)
    mutable tail : int;  (** one past the last pending index *)
    lock : Mutex.t;
  }

  type d = queue array

  let create ~lengths =
    Array.map
      (fun len ->
        if len < 0 then invalid_arg "Pool.Deques.create: negative length";
        { length = len; head = 0; tail = len; lock = Mutex.create () })
      lengths

  let reset d =
    Array.iter
      (fun q ->
        Mutex.lock q.lock;
        q.head <- 0;
        q.tail <- q.length;
        Mutex.unlock q.lock)
      d

  let take_front q =
    Mutex.lock q.lock;
    let r =
      if q.head >= q.tail then None
      else begin
        q.head <- q.head + 1;
        Some (q.head - 1)
      end
    in
    Mutex.unlock q.lock;
    r

  let take_back q =
    Mutex.lock q.lock;
    let r =
      if q.head >= q.tail then None
      else begin
        q.tail <- q.tail - 1;
        Some q.tail
      end
    in
    Mutex.unlock q.lock;
    r

  let pop d ~me =
    match take_front d.(me) with
    | Some i -> Some (me, i)
    | None ->
        (* Steal from the back of the fullest victim so items keep
           coming off the far end of large queues. *)
        let n = Array.length d in
        let best = ref (-1) and best_load = ref 0 in
        for i = 0 to n - 1 do
          let q = d.(i) in
          let load = q.tail - q.head in
          if i <> me && load > !best_load then begin
            best := i;
            best_load := load
          end
        done;
        if !best < 0 then None
        else
          (* The victim may drain between the scan and the steal; fall
             back to any non-empty queue before giving up. *)
          let rec attempt victim tried =
            match take_back d.(victim) with
            | Some i -> Some (victim, i)
            | None ->
                let next = (victim + 1) mod n in
                if tried >= n then None
                else if next = me then attempt ((next + 1) mod n) (tried + 1)
                else attempt next (tried + 1)
          in
          attempt !best 0
end
