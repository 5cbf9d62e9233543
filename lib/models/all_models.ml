(* The complete Table 2 roster. *)

let dns = Dns_models.all
let bgp = Bgp_models.all
let smtp = Smtp_models.all

let all = dns @ bgp @ smtp

let extensions = [ Tcp_models.server ]

let find id =
  List.find_opt (fun (m : Model_def.t) -> m.Model_def.id = id) (all @ extensions)
