module Key = struct
  type t = { stage : string; canonical : string; digest : string }

  (* FNV-1a, 64-bit: simple, fast, and — unlike [Hashtbl.hash] — a
     documented constant across OCaml versions, so on-disk entries
     written by one build stay addressable by the next. *)
  let fnv1a_64 s =
    let offset_basis = 0xcbf29ce484222325L in
    let prime = 0x100000001b3L in
    let h = ref offset_basis in
    String.iter
      (fun c ->
        h := Int64.logxor !h (Int64.of_int (Char.code c));
        h := Int64.mul !h prime)
      s;
    !h

  let v ~stage parts =
    let buf = Buffer.create 256 in
    (* length-prefixed fields make the encoding injective *)
    let add s =
      Buffer.add_string buf (string_of_int (String.length s));
      Buffer.add_char buf ':';
      Buffer.add_string buf s;
      Buffer.add_char buf '\n'
    in
    add stage;
    List.iter
      (fun (name, value) ->
        add name;
        add value)
      parts;
    let canonical = Buffer.contents buf in
    { stage; canonical; digest = Printf.sprintf "%016Lx" (fnv1a_64 canonical) }

  let stage t = t.stage
  let digest t = t.digest
  let canonical t = t.canonical
  let equal a b = a.stage = b.stage && a.canonical = b.canonical
end

type t = {
  dir : string option;
  mutex : Mutex.t;
  table : (string, string * string) Hashtbl.t;
      (* stage-digest -> (canonical key, payload) *)
  mutable hits : int;
  mutable misses : int;
  mutable write_failures : int;
}

let create ?dir () =
  { dir; mutex = Mutex.create (); table = Hashtbl.create 64; hits = 0;
    misses = 0; write_failures = 0 }

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let slot (key : Key.t) = Key.stage key ^ "-" ^ Key.digest key

let path_of t key =
  match t.dir with
  | None -> None
  | Some d -> Some (Filename.concat d (slot key ^ ".eywa"))

(* Disk format: the canonical key (so collisions are detectable), a
   separator line, then the payload verbatim. *)
let disk_read t (key : Key.t) =
  match path_of t key with
  | None -> None
  | Some path -> (
      match In_channel.with_open_bin path In_channel.input_all with
      | exception Sys_error _ -> None
      | content ->
          let header = Key.canonical key ^ "\n" in
          let n = String.length header in
          if String.starts_with ~prefix:header content then
            Some (String.sub content n (String.length content - n))
          else None)

(* [dir] and its missing parents. A directory that appears between the
   check and the [mkdir] (another domain or process creating it) is no
   failure. *)
let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.is_directory dir -> ()
  end

(* On failure the partial [.tmp] file is removed and the error returned:
   the entry then lives in memory only. *)
let disk_write t (key : Key.t) payload =
  match path_of t key with
  | None -> Ok ()
  | Some path -> (
      (* write-then-rename so a concurrent reader never sees a torn
         entry *)
      let tmp = path ^ ".tmp" in
      try
        Option.iter mkdir_p t.dir;
        Out_channel.with_open_bin tmp (fun oc ->
            output_string oc (Key.canonical key ^ "\n");
            output_string oc payload);
        Sys.rename tmp path;
        Ok ()
      with Sys_error message ->
        (try Sys.remove tmp with Sys_error _ -> ());
        Error message)

let lookup ?(sink = Instrument.null) t (key : Key.t) ~decode =
  let canonical = Key.canonical key in
  let found =
    locked t (fun () ->
        let found =
          match Hashtbl.find_opt t.table (slot key) with
          | Some (c, payload) when c = canonical -> Result.to_option (decode payload)
          | Some _ | None ->
              Option.bind (disk_read t key) (fun payload ->
                  let v = Result.to_option (decode payload) in
                  if Option.is_some v then
                    Hashtbl.replace t.table (slot key) (canonical, payload);
                  v)
        in
        if Option.is_some found then t.hits <- t.hits + 1
        else t.misses <- t.misses + 1;
        found)
  in
  let stage = Key.stage key and digest = Key.digest key in
  sink
    (match found with
    | Some _ -> Instrument.Cache_hit { stage; key = digest }
    | None -> Instrument.Cache_miss { stage; key = digest });
  found

let store ?(sink = Instrument.null) t (key : Key.t) payload =
  let failed =
    locked t (fun () ->
        Hashtbl.replace t.table (slot key) (Key.canonical key, payload);
        match disk_write t key payload with
        | Ok () -> None
        | Error message ->
            t.write_failures <- t.write_failures + 1;
            Some message)
  in
  Option.iter
    (fun message ->
      sink
        (Instrument.Cache_write_failed
           { stage = Key.stage key; key = Key.digest key; message }))
    failed

let hits t = locked t (fun () -> t.hits)
let misses t = locked t (fun () -> t.misses)
let write_failures t = locked t (fun () -> t.write_failures)

let to_list t =
  locked t (fun () ->
      Hashtbl.fold (fun k (_, payload) acc -> (k, payload) :: acc) t.table []
      |> List.sort compare)
