(* Fixed-size domain pool. One shared FIFO of closures, guarded by a
   mutex; workers sleep on [work] between batches, each submitting
   driver sleeps on its batch's [finished] condition while the batch's
   last in-flight jobs run. Determinism does not live here — jobs
   complete in arbitrary order — it lives in [run_thunks], which gives
   every job a dedicated result slot and lets [map]/[map_reduce] read
   the slots in index order.

   Completion is tracked per batch (not with a global pending counter)
   so that several driver domains may submit batches to one pool
   concurrently without their waits entangling. *)

type batch = {
  mutable remaining : int;   (* queued + running jobs of this batch *)
  finished : Condition.t;    (* signalled when [remaining] reaches 0 *)
}

type job = { body : unit -> unit; batch : batch }

type t = {
  lock : Mutex.t;
  work : Condition.t;      (* signalled when the queue gains work / on shutdown *)
  queue : job Queue.t;
  mutable live : bool;
  mutable workers : unit Domain.t array;
  jobs : int;
}

let max_jobs = 64

let clamp_jobs j = if j < 1 then 1 else if j > max_jobs then max_jobs else j

let default_jobs () =
  let from_env =
    match Sys.getenv_opt "BA_JOBS" with
    | None -> None
    | Some s -> (
        match int_of_string_opt (String.trim s) with
        | Some j when j >= 1 -> Some j
        | Some _ | None -> None)
  in
  match from_env with
  | Some j -> clamp_jobs j
  | None -> clamp_jobs (Domain.recommended_domain_count ())

(* Run queued jobs until the queue is empty; expects [t.lock] held on
   entry and leaves it held on exit. Bodies never raise ([run_thunks]
   wraps them). A draining driver takes jobs in FIFO order regardless
   of batch, so it may execute jobs of a concurrently submitted batch —
   harmless, since job bodies never block on other jobs. *)
let drain_queue t =
  while not (Queue.is_empty t.queue) do
    let job = Queue.pop t.queue in
    Mutex.unlock t.lock;
    job.body ();
    Mutex.lock t.lock;
    job.batch.remaining <- job.batch.remaining - 1;
    if job.batch.remaining = 0 then Condition.broadcast job.batch.finished
  done

let worker t =
  Mutex.lock t.lock;
  let running = ref true in
  while !running do
    drain_queue t;
    if t.live then Condition.wait t.work t.lock else running := false
  done;
  Mutex.unlock t.lock

let create ~jobs =
  let jobs = clamp_jobs jobs in
  let t =
    { lock = Mutex.create ();
      work = Condition.create ();
      queue = Queue.create ();
      live = true;
      workers = [||];
      jobs }
  in
  if jobs > 1 then
    t.workers <- Array.init (jobs - 1) (fun _ -> Domain.spawn (fun () -> worker t));
  t

let size t = t.jobs

let shutdown t =
  Mutex.lock t.lock;
  if t.live then begin
    t.live <- false;
    Condition.broadcast t.work;
    Mutex.unlock t.lock;
    Array.iter Domain.join t.workers;
    t.workers <- [||]
  end
  else Mutex.unlock t.lock

let with_pool ~jobs f =
  let pool = create ~jobs in
  Fun.protect ~finally:(fun () -> shutdown pool) (fun () -> f pool)

(* Execute the thunks and return their outcomes in index order. The
   driver domain participates: it drains the queue alongside the
   workers, then waits for its batch's stragglers. Slot [i] is written
   by exactly one executor and read only after the batch counter has
   returned to 0 under [lock], which orders the write before the
   read. *)
let run_thunks pool thunks =
  let arr = Array.of_list thunks in
  let count = Array.length arr in
  let results = Array.make count None in
  let cell i thunk () =
    results.(i) <-
      Some
        (try Ok (thunk ())
         with e -> Error (e, Printexc.get_raw_backtrace ()))
  in
  if Array.length pool.workers = 0 then
    Array.iteri (fun i thunk -> cell i thunk ()) arr
  else begin
    let batch = { remaining = count; finished = Condition.create () } in
    Mutex.lock pool.lock;
    Array.iteri
      (fun i thunk -> Queue.push { body = cell i thunk; batch } pool.queue)
      arr;
    Condition.broadcast pool.work;
    drain_queue pool;
    while batch.remaining > 0 do
      Condition.wait batch.finished pool.lock
    done;
    Mutex.unlock pool.lock
  end;
  Array.map
    (function
      | Some outcome -> outcome
      | None -> invalid_arg "Bapar.Pool: missing result slot")
    results

let join_outcome = function
  | Ok v -> v
  | Error (e, bt) -> Printexc.raise_with_backtrace e bt

let map ~pool f xs =
  run_thunks pool (List.map (fun x () -> f x) xs)
  |> Array.to_list
  |> List.map join_outcome

let map_reduce ~pool ~merge ~init jobs =
  Array.fold_left
    (fun acc outcome -> merge acc (join_outcome outcome))
    init (run_thunks pool jobs)
