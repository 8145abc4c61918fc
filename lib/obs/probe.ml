(* Domain-safe: trials now run on Bapar domains, and the engine's phase
   probes are global, so every mutation of a probe's counters happens
   under its own mutex and the registry table under [registry_lock].
   The enabled flag is an [Atomic.t] so the disabled-path read stays a
   single load. When probes are disabled — the default — [start]/[stop]
   still short-circuit without touching any lock. *)

type t = {
  name : string;
  lock : Mutex.t;
  mutable count : int;
  mutable total_ns : float;
}

let registry : (string, t) Hashtbl.t = Hashtbl.create 32

let registry_lock = Mutex.create ()

let on = Atomic.make false

let enable () = Atomic.set on true

let disable () = Atomic.set on false

let with_lock lock f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let register name =
  with_lock registry_lock (fun () ->
      match Hashtbl.find_opt registry name with
      | Some p -> p
      | None ->
          let p = { name; lock = Mutex.create (); count = 0; total_ns = 0.0 } in
          Hashtbl.add registry name p;
          p)

let probes () =
  with_lock registry_lock (fun () ->
      Hashtbl.fold (fun _ p acc -> p :: acc) registry [])

let reset () =
  List.iter
    (fun p ->
      with_lock p.lock (fun () ->
          p.count <- 0;
          p.total_ns <- 0.0))
    (probes ())

let now_ns () = Unix.gettimeofday () *. 1e9

let start () = if Atomic.get on then now_ns () else 0.0

let stop p t0 =
  if t0 > 0.0 then begin
    (* Wall-clock can step backwards (NTP); a negative span would poison
       the cumulative total, so clamp to zero. *)
    let dt = Float.max 0.0 (now_ns () -. t0) in
    with_lock p.lock (fun () ->
        p.count <- p.count + 1;
        p.total_ns <- p.total_ns +. dt)
  end

let snapshot () =
  List.filter_map
    (fun p ->
      let count, total_ns =
        with_lock p.lock (fun () -> (p.count, p.total_ns))
      in
      if count > 0 then Some (p.name, count, total_ns) else None)
    (probes ())
  |> List.sort (fun (a, _, _) (b, _, _) -> String.compare a b)

let report () =
  let buf = Buffer.create 256 in
  List.iter
    (fun (name, count, total_ns) ->
      Buffer.add_string buf
        (Printf.sprintf "%-24s %10d calls %14.0f ns total %12.1f ns/call\n"
           name count total_ns
           (total_ns /. float_of_int count)))
    (snapshot ());
  Buffer.contents buf
