module Json = Eywa_core.Serialize.Json

type cls = Eywa_core.Instrument.cls = Det | Env

type counter_state = { mutable count : int }

type gauge_state = { mutable value : float }

type histogram_state = {
  bounds : float array;  (* strictly increasing upper bounds *)
  counts : int array;  (* length = Array.length bounds + 1; last = +Inf *)
  mutable sum : float;
  mutable observations : int;
}

type vec_state = (string, int) Hashtbl.t

type instrument =
  | Counter of counter_state
  | Gauge of gauge_state
  | Histogram of histogram_state
  | Vec of { label : string; cells : vec_state }

type entry = { name : string; help : string; cls : cls; inst : instrument }

type t = {
  mutex : Mutex.t;
  mutable rev_entries : entry list;  (* newest first; exposed reversed *)
  names : (string, unit) Hashtbl.t;
}

type counter = { c_reg : t; c_state : counter_state }
type gauge = { g_reg : t; g_state : gauge_state }
type histogram = { h_reg : t; h_state : histogram_state }
type vec = { v_reg : t; v_cells : vec_state }

let create () =
  { mutex = Mutex.create (); rev_entries = []; names = Hashtbl.create 32 }

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let register t ~name ~help ~cls inst =
  locked t (fun () ->
      if Hashtbl.mem t.names name then
        invalid_arg (Printf.sprintf "Metrics: %S already registered" name);
      Hashtbl.replace t.names name ();
      t.rev_entries <- { name; help; cls; inst } :: t.rev_entries)

let counter t ?(cls = Det) ?(help = "") name =
  let state = { count = 0 } in
  register t ~name ~help ~cls (Counter state);
  { c_reg = t; c_state = state }

let inc c n = locked c.c_reg (fun () -> c.c_state.count <- c.c_state.count + n)

let gauge t ?(cls = Det) ?(help = "") name =
  let state = { value = 0.0 } in
  register t ~name ~help ~cls (Gauge state);
  { g_reg = t; g_state = state }

let set_gauge g v = locked g.g_reg (fun () -> g.g_state.value <- v)

let histogram t ?(cls = Det) ?(help = "") ~buckets name =
  let bounds = Array.of_list buckets in
  Array.iteri
    (fun i b ->
      if i > 0 && bounds.(i - 1) >= b then
        invalid_arg
          (Printf.sprintf "Metrics: %S bucket bounds must strictly increase"
             name))
    bounds;
  let state =
    {
      bounds;
      counts = Array.make (Array.length bounds + 1) 0;
      sum = 0.0;
      observations = 0;
    }
  in
  register t ~name ~help ~cls (Histogram state);
  { h_reg = t; h_state = state }

let observe h v =
  locked h.h_reg (fun () ->
      let st = h.h_state in
      let i = ref 0 in
      while !i < Array.length st.bounds && v > st.bounds.(!i) do
        incr i
      done;
      st.counts.(!i) <- st.counts.(!i) + 1;
      st.sum <- st.sum +. v;
      st.observations <- st.observations + 1)

let counter_vec t ?(cls = Det) ?(help = "") ~label name =
  let cells = Hashtbl.create 8 in
  register t ~name ~help ~cls (Vec { label; cells });
  { v_reg = t; v_cells = cells }

let inc_vec v label_value n =
  locked v.v_reg (fun () ->
      let cur = try Hashtbl.find v.v_cells label_value with Not_found -> 0 in
      Hashtbl.replace v.v_cells label_value (cur + n))

let float_str f = Json.to_string (Json.Float f)

let expose ?(strip_env = false) t =
  locked t (fun () ->
      let buf = Buffer.create 1024 in
      let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
      List.iter
        (fun e ->
          if not (strip_env && e.cls = Env) then begin
            if e.help <> "" then line "# HELP %s %s" e.name e.help;
            match e.inst with
            | Counter st ->
                line "# TYPE %s counter" e.name;
                line "%s %d" e.name st.count
            | Gauge st ->
                line "# TYPE %s gauge" e.name;
                line "%s %s" e.name (float_str st.value)
            | Histogram st ->
                line "# TYPE %s histogram" e.name;
                let cumulative = ref 0 in
                Array.iteri
                  (fun i n ->
                    cumulative := !cumulative + n;
                    let le =
                      if i = Array.length st.bounds then "+Inf"
                      else float_str st.bounds.(i)
                    in
                    line "%s_bucket{le=\"%s\"} %d" e.name le !cumulative)
                  st.counts;
                line "%s_sum %s" e.name (float_str st.sum);
                line "%s_count %d" e.name st.observations
            | Vec { label; cells } ->
                line "# TYPE %s counter" e.name;
                Hashtbl.fold (fun k v acc -> (k, v) :: acc) cells []
                |> List.sort compare
                |> List.iter (fun (k, v) ->
                       line "%s{%s=\"%s\"} %d" e.name label k v)
          end)
        (List.rev t.rev_entries);
      Buffer.contents buf)
