type t = string list

let root = []

let of_string s =
  String.split_on_char '.' s |> List.filter (fun l -> l <> "")

let to_string = function
  | [] -> "."
  | labels -> String.concat "." labels ^ "."

let equal = List.equal String.equal
let compare = compare

let label_count = List.length

let parent = function [] -> None | _ :: rest -> Some rest

let is_suffix ~suffix n =
  let ls = List.length suffix and ln = List.length n in
  ls <= ln
  &&
  let rec drop k xs = if k = 0 then xs else drop (k - 1) (List.tl xs) in
  drop (ln - ls) n = suffix

let is_proper_suffix ~suffix n =
  List.length suffix < List.length n && is_suffix ~suffix n

let strip_suffix ~suffix n =
  if not (is_suffix ~suffix n) then None
  else begin
    let keep = List.length n - List.length suffix in
    let rec take k = function
      | _ when k = 0 -> []
      | [] -> []
      | x :: rest -> x :: take (k - 1) rest
    in
    Some (take keep n)
  end

let append prefix suffix = prefix @ suffix

let is_wildcard = function "*" :: _ -> true | _ -> false

let wildcard_base = function "*" :: rest -> Some rest | _ -> None

let wildcard_matches ~wildcard n =
  match wildcard_base wildcard with
  | None -> false
  | Some base -> is_proper_suffix ~suffix:base n && not (equal n wildcard)

let substitute_suffix ~old_suffix ~new_suffix n =
  if not (is_proper_suffix ~suffix:old_suffix n) then None
  else
    match strip_suffix ~suffix:old_suffix n with
    | None -> None
    | Some prefix -> Some (append prefix new_suffix)

let pp ppf n = Format.fprintf ppf "%s" (to_string n)
