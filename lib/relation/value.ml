type t =
  | Int of int
  | Float of float
  | Str of string
  | Bool of bool
  | Null

let rank = function
  | Null -> 0
  | Bool _ -> 1
  | Int _ | Float _ -> 2
  | Str _ -> 3

let compare a b =
  match (a, b) with
  | Int x, Int y -> Int.compare x y
  | Float x, Float y -> Float.compare x y
  | Int x, Float y -> Float.compare (float_of_int x) y
  | Float x, Int y -> Float.compare x (float_of_int y)
  | Str x, Str y -> String.compare x y
  | Bool x, Bool y -> Bool.compare x y
  | Null, Null -> 0
  | (Int _ | Float _ | Str _ | Bool _ | Null), _ -> Int.compare (rank a) (rank b)

let equal a b = compare a b = 0

let hash = function
  | Int x -> Hashtbl.hash (float_of_int x)
  | Float x -> Hashtbl.hash x
  | Str s -> Hashtbl.hash s
  | Bool b -> Hashtbl.hash b
  | Null -> 0x6e756c6c

let is_null = function Null -> true | Int _ | Float _ | Str _ | Bool _ -> false

let to_string = function
  | Int x -> string_of_int x
  | Float x -> Printf.sprintf "%g" x
  | Str s -> s
  | Bool b -> string_of_bool b
  | Null -> "NULL"

let pp fmt v = Format.pp_print_string fmt (to_string v)

let as_int = function
  | Int x -> x
  | Float _ | Str _ | Bool _ | Null -> invalid_arg "Value.as_int"

let as_float = function
  | Int x -> float_of_int x
  | Float x -> x
  | Str _ | Bool _ | Null -> invalid_arg "Value.as_float"
