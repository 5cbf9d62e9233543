(* A fixed-size domain work-pool. Workers are spawned once at [create]
   and consume closures from a Mutex/Condition-protected queue; [map]
   fans a list out to the pool and merges results back **by input
   index**, never by completion order, so callers observe byte-identical
   output at any pool size. *)

let in_worker_key = Domain.DLS.new_key (fun () -> false)
let in_worker () = Domain.DLS.get in_worker_key

(* Which worker of the pool the calling domain is (-1 outside a pool);
   only used to attribute task counts in [map_stats]. *)
let worker_index_key = Domain.DLS.new_key (fun () -> -1)

let env_jobs () =
  match Sys.getenv_opt "EYWA_JOBS" with
  | None -> None
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 1 -> Some n
      | Some _ | None -> None)

let default_jobs () =
  match env_jobs () with
  | Some n -> n
  | None -> Domain.recommended_domain_count ()

let jobs = function Some j -> max 1 j | None -> default_jobs ()

type t = {
  size : int;
  queue : (unit -> unit) Queue.t;
  mutex : Mutex.t;
  nonempty : Condition.t;
  mutable closed : bool;
  mutable workers : unit Domain.t list;
}

let size pool = pool.size

let worker pool index () =
  Domain.DLS.set in_worker_key true;
  Domain.DLS.set worker_index_key index;
  let rec loop () =
    Mutex.lock pool.mutex;
    let rec take () =
      match Queue.take_opt pool.queue with
      | Some task -> Some task
      | None ->
          if pool.closed then None
          else begin
            Condition.wait pool.nonempty pool.mutex;
            take ()
          end
    in
    let task = take () in
    Mutex.unlock pool.mutex;
    match task with
    | None -> ()
    | Some f ->
        (* the only tasks are [map_stats]'s, which turn whatever [f]
           raises into the batch's [Error] *)
        f ();
        loop ()
  in
  loop ()

let create ~jobs =
  (* A pool created from inside another pool's worker is degenerate:
     its [map] would run inline anyway, so don't spawn idle domains. *)
  let jobs = if in_worker () then 1 else max 1 jobs in
  let pool =
    {
      size = jobs;
      queue = Queue.create ();
      mutex = Mutex.create ();
      nonempty = Condition.create ();
      closed = false;
      workers = [];
    }
  in
  if jobs > 1 then
    pool.workers <- List.init jobs (fun i -> Domain.spawn (worker pool i));
  pool

let shutdown pool =
  Mutex.lock pool.mutex;
  if not pool.closed then begin
    pool.closed <- true;
    Condition.broadcast pool.nonempty
  end;
  Mutex.unlock pool.mutex;
  let workers = pool.workers in
  pool.workers <- [];
  List.iter Domain.join workers

let with_pool ~jobs f =
  let pool = create ~jobs in
  Fun.protect ~finally:(fun () -> shutdown pool) (fun () -> f pool)

type map_stats = {
  tasks : int;
  jobs : int;
  per_worker : int list;
  queue_wait_ticks : int;
}

let map_stats pool f xs =
  if pool.size <= 1 || in_worker () then
    let results = List.map f xs in
    ( results,
      {
        tasks = List.length results;
        jobs = pool.size;
        per_worker = [ List.length results ];
        queue_wait_ticks = 0;
      } )
  else begin
    let arr = Array.of_list xs in
    let n = Array.length arr in
    if n = 0 then
      ( [],
        {
          tasks = 0;
          jobs = pool.size;
          per_worker = List.init pool.size (fun _ -> 0);
          queue_wait_ticks = 0;
        } )
    else begin
      let results = Array.make n None in
      (* the smallest failing index wins, matching what a sequential
         left-to-right traversal would raise *)
      let first_error = ref None in
      let remaining = ref n in
      let done_mutex = Mutex.create () in
      let all_done = Condition.create () in
      let worker_tasks = Array.make pool.size 0 in
      let task i () =
        let outcome = try Ok (f arr.(i)) with e -> Error e in
        let w = Domain.DLS.get worker_index_key in
        Mutex.lock done_mutex;
        if w >= 0 && w < pool.size then
          worker_tasks.(w) <- worker_tasks.(w) + 1;
        (match outcome with
        | Ok r -> results.(i) <- Some r
        | Error e -> (
            match !first_error with
            | Some (j, _) when j < i -> ()
            | Some _ | None -> first_error := Some (i, e)));
        decr remaining;
        if !remaining = 0 then Condition.signal all_done;
        Mutex.unlock done_mutex
      in
      (* queue-wait ticks: backlog length each task sees as it is
         enqueued — a deterministic proxy for queue pressure (the whole
         batch is added under the queue mutex, so task i waits behind
         exactly the tasks already queued, never behind a wall clock) *)
      let queue_wait = ref 0 in
      Mutex.lock pool.mutex;
      if pool.closed then begin
        Mutex.unlock pool.mutex;
        invalid_arg "Pool.map: pool is shut down"
      end;
      for i = 0 to n - 1 do
        queue_wait := !queue_wait + Queue.length pool.queue;
        Queue.add (task i) pool.queue
      done;
      Condition.broadcast pool.nonempty;
      Mutex.unlock pool.mutex;
      Mutex.lock done_mutex;
      while !remaining > 0 do
        Condition.wait all_done done_mutex
      done;
      Mutex.unlock done_mutex;
      match !first_error with
      | Some (_, e) -> raise e
      | None ->
          ( Array.to_list
              (Array.map
                 (function Some r -> r | None -> assert false)
                 results),
            {
              tasks = n;
              jobs = pool.size;
              per_worker = Array.to_list worker_tasks;
              queue_wait_ticks = !queue_wait;
            } )
    end
  end

let map pool f xs = fst (map_stats pool f xs)
