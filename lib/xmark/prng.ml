type t = { mutable state : int64 }

let golden = 0x9E3779B97F4A7C15L

let create seed = { state = seed }

let next t =
  t.state <- Int64.add t.state golden;
  let z = t.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let int t n =
  if n <= 0 then invalid_arg "Prng.int";
  Int64.to_int (Int64.rem (Int64.logand (next t) Int64.max_int) (Int64.of_int n))

let float t x =
  let u = Int64.to_float (Int64.shift_right_logical (next t) 11) /. 9007199254740992.0 in
  u *. x

let bool t p = float t 1.0 < p

let choose t arr = arr.(int t (Array.length arr))
