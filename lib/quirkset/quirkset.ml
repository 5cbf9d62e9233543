type 'q t = { enabled : 'q list; mutable log : 'q list }

(* An immediate value is structurally equal only to itself, so [==]
   decides membership without calling the polymorphic compare. *)
let mem q l = if Obj.is_int (Obj.repr q) then List.memq q l else List.mem q l

let of_list enabled = { enabled; log = [] }

let has s q =
  if not (mem q s.log) then s.log <- q :: s.log;
  mem q s.enabled

let consulted s = List.rev s.log
