type rtype = A | AAAA | NS | TXT | CNAME | DNAME | SOA

type rdata = Target of Name.t | Address of string | Text of string | Soa_data

type t = { owner : Name.t; rtype : rtype; rdata : rdata }

let v owner rtype rdata = { owner; rtype; rdata }

let rtype_to_string = function
  | A -> "A"
  | AAAA -> "AAAA"
  | NS -> "NS"
  | TXT -> "TXT"
  | CNAME -> "CNAME"
  | DNAME -> "DNAME"
  | SOA -> "SOA"

let rtype_of_string = function
  | "A" -> Some A
  | "AAAA" -> Some AAAA
  | "NS" -> Some NS
  | "TXT" -> Some TXT
  | "CNAME" -> Some CNAME
  | "DNAME" -> Some DNAME
  | "SOA" -> Some SOA
  | _ -> None

let target t = match t.rdata with Target n -> Some n | Address _ | Text _ | Soa_data -> None

let rdata_equal a b =
  match (a, b) with
  | Target m, Target n -> Name.equal m n
  | Address x, Address y | Text x, Text y -> String.equal x y
  | Soa_data, Soa_data -> true
  | (Target _ | Address _ | Text _ | Soa_data), _ -> false

(* Zone dedup and every zone lookup filter call this, so it compares
   field by field, never through polymorphic compare; [rtype] is
   immediate, so [==] is its equality. *)
let equal a b =
  a.rtype == b.rtype && Name.equal a.owner b.owner && rdata_equal a.rdata b.rdata

let compare = compare

let rdata_to_string = function
  | Target n -> Name.to_string n
  | Address a -> a
  | Text s -> Printf.sprintf "%S" s
  | Soa_data -> "ns1.test. admin.test. 1 3600 600 86400 3600"

(* Built without a formatter: difftest renders every record of every
   served run. *)
let to_string t =
  String.concat " "
    [ Name.to_string t.owner; rtype_to_string t.rtype; rdata_to_string t.rdata ]

let pp ppf t = Format.pp_print_string ppf (to_string t)
