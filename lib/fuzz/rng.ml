(* splitmix64 (Steele, Lea & Flood): a tiny, high-quality, seedable
   generator whose whole state is one int64 — trivially splittable and
   with no global state to leak across domains. *)

type t = { mutable state : int64 }

let golden = 0x9E3779B97F4A7C15L

let mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
      0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
      0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create seed = { state = mix (Int64.of_int seed) }

let next t =
  t.state <- Int64.add t.state golden;
  mix t.state

let split t i =
  { state = mix (Int64.add t.state (mix (Int64.of_int i))) }

let int t n =
  if n <= 0 then invalid_arg "Rng.int: bound must be positive";
  Int64.to_int (Int64.rem (Int64.logand (next t) Int64.max_int) (Int64.of_int n))

let bool t = Int64.logand (next t) 1L = 1L

let pick t xs =
  match xs with
  | [] -> invalid_arg "Rng.pick: empty list"
  | _ -> List.nth xs (int t (List.length xs))
