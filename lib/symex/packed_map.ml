(* Entries sit back to back in [store]: the key's length and the value
   as varints around the key bytes. [slots] is an open-addressed,
   linearly probed index of 32-bit little-endian words: 0 for an empty
   slot, else one more than an entry's offset in [store]. It is kept at
   most half full. *)
type t = {
  mutable store : Bytes.t;
  mutable used : int;  (* bytes of [store] holding entries *)
  mutable slots : Bytes.t;
  mutable count : int;
}

let create n =
  let rec pow2 k = if k >= n then k else pow2 (2 * k) in
  let n = pow2 16 in
  { store = Bytes.create (16 * n); used = 0; slots = Bytes.make (4 * n) '\000'; count = 0 }

let length t = t.count
let capacity slots = Bytes.length slots / 4
let get_slot slots i = Int32.to_int (Bytes.get_int32_le slots (4 * i))
let set_slot slots i e = Bytes.set_int32_le slots (4 * i) (Int32.of_int e)

(* little-endian base 128, the high bit marking a continued number *)
let rec put_varint b off n =
  if n < 0x80 then begin
    Bytes.unsafe_set b off (Char.unsafe_chr n);
    off + 1
  end
  else begin
    Bytes.unsafe_set b off (Char.unsafe_chr (n land 0x7f lor 0x80));
    put_varint b (off + 1) (n lsr 7)
  end

(* the varint at [off], and the offset past it *)
let get_varint b off =
  let rec go off shift acc =
    let c = Char.code (Bytes.unsafe_get b off) in
    let acc = acc lor ((c land 0x7f) lsl shift) in
    if c < 0x80 then (acc, off + 1) else go (off + 1) (shift + 7) acc
  in
  go off 0 0

(* FNV-1a over [len] bytes of [b] from [off] *)
let hash b off len =
  let h = ref 0x4bf29ce484222325 in
  for i = off to off + len - 1 do
    h := (!h lxor Char.code (Bytes.unsafe_get b i)) * 0x100000001b3
  done;
  !h land max_int

let rec equal_sub a aoff b boff len =
  len = 0
  || Bytes.unsafe_get a aoff = Bytes.unsafe_get b boff
     && equal_sub a (aoff + 1) b (boff + 1) (len - 1)

(* The slot of [t.slots] holding the key that is [klen] bytes of [kb]
   from [koff], or the empty slot where it would go. *)
let slot t kb koff klen =
  let mask = capacity t.slots - 1 in
  let rec probe i =
    let e = get_slot t.slots i in
    if e = 0 then i
    else
      let len, off = get_varint t.store (e - 1) in
      if len = klen && equal_sub t.store off kb koff klen then i
      else probe ((i + 1) land mask)
  in
  probe (hash kb koff klen land mask)

let find t key =
  let e = get_slot t.slots (slot t (Bytes.unsafe_of_string key) 0 (String.length key)) in
  if e = 0 then None
  else
    let len, off = get_varint t.store (e - 1) in
    Some (fst (get_varint t.store (off + len)))

let grow t =
  let old = t.slots in
  t.slots <- Bytes.make (2 * Bytes.length old) '\000';
  for i = 0 to capacity old - 1 do
    let e = get_slot old i in
    if e <> 0 then begin
      let len, off = get_varint t.store (e - 1) in
      set_slot t.slots (slot t t.store off len) e
    end
  done

let add t key v =
  if v < 0 then invalid_arg "Packed_map.add: negative value";
  if 2 * (t.count + 1) > capacity t.slots then grow t;
  let kb = Bytes.unsafe_of_string key and klen = String.length key in
  let i = slot t kb 0 klen in
  if get_slot t.slots i = 0 then begin
    (* the key and two varints of at most 10 bytes each *)
    let need = t.used + klen + 20 in
    if need >= 0x7fff_ffff then failwith "Packed_map.add: store full";
    if need > Bytes.length t.store then begin
      let store = Bytes.create (max need (2 * Bytes.length t.store)) in
      Bytes.blit t.store 0 store 0 t.used;
      t.store <- store
    end;
    let entry = t.used in
    let off = put_varint t.store entry klen in
    Bytes.blit kb 0 t.store off klen;
    t.used <- put_varint t.store (off + klen) v;
    set_slot t.slots i (entry + 1);
    t.count <- t.count + 1
  end
