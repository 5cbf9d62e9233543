type 'q t = { enabled : 'q list; mutable log : 'q list }

let of_list enabled = { enabled; log = [] }

let has s q =
  if not (List.mem q s.log) then s.log <- q :: s.log;
  List.mem q s.enabled

let consulted s = List.rev s.log
