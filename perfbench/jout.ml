(* Minimal JSON writer for the helper's one-line results. *)

type t =
  | Int of int
  | Num of float
  | Str of string
  | Bool of bool
  | Arr of t list
  | Obj of (string * t) list

let escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let rec to_string = function
  | Int i -> string_of_int i
  | Num f when Float.is_integer f && Float.abs f < 1e15 ->
      Printf.sprintf "%.1f" f
  | Num f when Float.is_finite f -> Printf.sprintf "%.17g" f
  | Num _ -> "null"
  | Str s -> "\"" ^ escape s ^ "\""
  | Bool b -> string_of_bool b
  | Arr l -> "[" ^ String.concat ", " (List.map to_string l) ^ "]"
  | Obj kvs ->
      "{"
      ^ String.concat ", "
          (List.map (fun (k, v) -> "\"" ^ escape k ^ "\": " ^ to_string v) kvs)
      ^ "}"

let print v = print_endline (to_string v)
