(* splitmix64 (Steele, Lea & Flood): a tiny, high-quality, seedable
   generator whose whole state is one int64 — trivially splittable and
   with no global state to leak across domains.

   The state lives in an 8-byte buffer rather than a mutable [int64]
   field, which would box a fresh [Int64] on every draw; [mix] and
   [next] are inlined so that no [Int64] crosses a call boxed either. *)

type t = Bytes.t

let golden = 0x9E3779B97F4A7C15L

let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
      0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
      0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let of_state s =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 s;
  t

let create seed = of_state (mix (Int64.of_int seed))

let[@inline] next t =
  let s = Int64.add (Bytes.get_int64_ne t 0) golden in
  Bytes.set_int64_ne t 0 s;
  mix s

let split t i =
  of_state (mix (Int64.add (Bytes.get_int64_ne t 0) (mix (Int64.of_int i))))

let int t n =
  if n <= 0 then invalid_arg "Rng.int: bound must be positive";
  Int64.to_int (Int64.rem (Int64.logand (next t) Int64.max_int) (Int64.of_int n))

let bool t = Int64.logand (next t) 1L = 1L

let pick t xs =
  match xs with
  | [] -> invalid_arg "Rng.pick: empty list"
  | _ -> List.nth xs (int t (List.length xs))
