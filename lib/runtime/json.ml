type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* RFC 8259 requires escaping only '"', '\\' and bytes below 0x20;
   every other byte, UTF-8 or not, is copied through. *)
let quote s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* JSON has no nan/inf literals.  For a normal double, 15 significant
   digits print the shortest round-tripping decimal whenever one of at
   most 15 digits exists, so the search starts there; subnormals carry
   fewer digits of precision and are searched from 1. *)
let float_repr x =
  let rec go p =
    let s = Printf.sprintf "%.*g" p x in
    if p >= 17 || float_of_string s = x then s else go (p + 1)
  in
  if not (Float.is_finite x) then "null"
  else go (if Float.abs x < Float.min_float then 1 else 15)

let rec to_string = function
  | Null -> "null"
  | Bool v -> string_of_bool v
  | Int i -> string_of_int i
  | Float x -> float_repr x
  | String s -> quote s
  | List [] -> "[]"
  | List l when List.for_all (function Obj _ -> true | _ -> false) l ->
      "[\n" ^ String.concat ",\n" (List.map to_string l) ^ "\n]"
  | List l -> "[" ^ String.concat ", " (List.map to_string l) ^ "]"
  | Obj fields ->
      "{"
      ^ String.concat ", "
          (List.map (fun (k, v) -> quote k ^ ": " ^ to_string v) fields)
      ^ "}"
