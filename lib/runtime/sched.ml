type source =
  | Own of int array array  (** domain -> its tile ids *)
  | Stolen of Pool.Deques.d * int array array
  | Shared of Pool.Counter.c * (remaining:int -> int)

let tiles ~steal ~nprocs owners =
  let by = Array.make nprocs [] in
  for t = Array.length owners - 1 downto 0 do
    by.(owners.(t)) <- t :: by.(owners.(t))
  done;
  let ids = Array.map Array.of_list by in
  if steal then
    Stolen (Pool.Deques.create ~lengths:(Array.map Array.length ids), ids)
  else Own ids

let shared ~total ~chunk = Shared (Pool.Counter.create ~total, chunk)

let reset = function
  | Own _ -> ()
  | Stolen (d, _) -> Pool.Deques.reset d
  | Shared (c, _) -> Pool.Counter.reset c

let run ~trace source ~me ~steps ~tile ~chunk ~step_end =
  let d0 = Trace.depth trace me in
  let claimed step t =
    Trace.begin_span trace me Trace.Tile ~arg:t;
    tile step t;
    Trace.end_span trace me;
    Trace.incr trace me Trace.Tiles_run
  in
  try
    for step = 1 to steps do
      Trace.begin_span trace me Trace.Step ~arg:step;
      (match source with
      | Own ids -> Array.iter (claimed step) ids.(me)
      | Stolen (d, ids) ->
          let rec drain () =
            match Pool.Deques.pop d ~me with
            | None -> ()
            | Some (owner, i) ->
                let t = ids.(owner).(i) in
                if owner <> me then begin
                  Trace.incr trace me Trace.Steals;
                  Trace.instant trace me Trace.Steal ~arg:t
                end;
                claimed step t;
                drain ()
          in
          drain ()
      | Shared (c, size) ->
          let rec drain () =
            match Pool.Counter.next c ~chunk:size with
            | None -> ()
            | Some (lo, hi) ->
                Trace.begin_span trace me Trace.Chunk ~arg:lo;
                chunk lo hi;
                Trace.end_span trace me;
                drain ()
          in
          drain ());
      Trace.end_span trace me;
      match step_end with
      | None -> ()
      | Some step_end ->
          Trace.begin_span trace me Trace.Barrier ~arg:step;
          step_end step;
          Trace.end_span trace me
    done
  with e ->
    Trace.unwind trace me ~depth:d0;
    raise e
