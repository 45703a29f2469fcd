
type loop = { var : string; lower : int; upper : int }

type t = {
  name : string;
  seq : loop option;
  loops : loop list;
  body : Reference.t list;
}

let loop var lower upper =
  if lower > upper then invalid_arg "Nest.loop: empty bounds";
  { var; lower; upper }

let make ?(name = "loop") ?seq loops body =
  if loops = [] then invalid_arg "Nest.make: no parallel loops";
  let names = List.map (fun l -> l.var) loops in
  let all_names =
    match seq with None -> names | Some s -> s.var :: names
  in
  if List.length (List.sort_uniq String.compare all_names)
     <> List.length all_names
  then invalid_arg "Nest.make: duplicate loop variable names";
  let l = List.length loops in
  List.iter
    (fun (r : Reference.t) ->
      if Affine.nesting r.Reference.index <> l then
        invalid_arg
          (Printf.sprintf
             "Nest.make: reference to %s has G with %d rows but nesting is %d"
             r.Reference.array_name
             (Affine.nesting r.Reference.index)
             l))
    body;
  { name; seq; loops; body }

let nesting t = List.length t.loops
let vars t = Array.of_list (List.map (fun l -> l.var) t.loops)
let bounds t = Array.of_list (List.map (fun l -> (l.lower, l.upper)) t.loops)
let extents t =
  Array.of_list (List.map (fun l -> l.upper - l.lower + 1) t.loops)

let iterations t =
  Array.fold_left
    (fun acc e -> Intmath.Int_math.mul_exact acc e)
    1 (extents t)

let steps ?override t =
  match (override, t.seq) with
  | Some n, _ ->
      if n < 1 then invalid_arg "Nest.steps: steps < 1";
      n
  | None, Some l -> l.upper - l.lower + 1
  | None, None -> 1

let arrays t =
  List.fold_left
    (fun acc (r : Reference.t) ->
      if List.mem r.Reference.array_name acc then acc
      else acc @ [ r.Reference.array_name ])
    [] t.body

let references_to t name =
  List.filter (fun (r : Reference.t) -> r.Reference.array_name = name) t.body

let corners t =
  let bs = bounds t in
  let rec go i acc =
    if i = Array.length bs then [ Array.of_list (List.rev acc) ]
    else
      let lo, hi = bs.(i) in
      go (i + 1) (lo :: acc) @ go (i + 1) (hi :: acc)
  in
  go 0 []

let array_bounding_boxes t =
  List.map
    (fun name ->
      let refs = references_to t name in
      let d =
        match refs with
        | [] -> 0
        | r :: _ -> Affine.dims r.Reference.index
      in
      let lo = Array.make d max_int and hi = Array.make d min_int in
      List.iter
        (fun (r : Reference.t) ->
          List.iter
            (fun corner ->
              let pt = Affine.apply r.Reference.index corner in
              Array.iteri
                (fun j v ->
                  if v < lo.(j) then lo.(j) <- v;
                  if v > hi.(j) then hi.(j) <- v)
                pt)
            (corners t))
        refs;
      (name, (lo, hi)))
    (arrays t)

let array_extent_hints t =
  List.map
    (fun (name, (lo, hi)) ->
      (name, Array.init (Array.length lo) (fun j -> hi.(j) - lo.(j) + 1)))
    (array_bounding_boxes t)

let pp ppf t =
  let var_names = vars t in
  let indent n = String.make (2 * n) ' ' in
  let level = ref 0 in
  (match t.seq with
  | Some s ->
      Format.fprintf ppf "%sDoseq (%s, %d, %d)@." (indent !level) s.var
        s.lower s.upper;
      incr level
  | None -> ());
  List.iter
    (fun l ->
      Format.fprintf ppf "%sDoall (%s, %d, %d)@." (indent !level) l.var
        l.lower l.upper;
      incr level)
    t.loops;
  let writes, reads =
    List.partition Reference.is_write_like t.body
  in
  (match (writes, reads) with
  | [ w ], _ :: _ ->
      Format.fprintf ppf "%s%a = %s@." (indent !level)
        (Reference.pp ~vars:var_names)
        w
        (String.concat " + "
           (List.map
              (fun r ->
                Format.asprintf "%a" (Reference.pp ~vars:var_names) r)
              reads))
  | _ ->
      List.iter
        (fun r ->
          Format.fprintf ppf "%s%s %a@." (indent !level)
            (Reference.kind_to_string r.Reference.kind)
            (Reference.pp ~vars:var_names)
            r)
        t.body);
  List.iter
    (fun _ ->
      decr level;
      Format.fprintf ppf "%sEndDoall@." (indent !level))
    t.loops;
  match t.seq with
  | Some _ ->
      decr level;
      Format.fprintf ppf "%sEndDoseq@." (indent !level)
  | None -> ()

let to_string t = Format.asprintf "%a" pp t
