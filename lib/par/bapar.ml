(* One fold per batch: the caller and [min jobs count - 1] fresh domains
   take job indices from one atomic counter, each result lands in its
   index's slot, and the caller folds the slots in index order once every
   domain is joined. Slot [i] is written by exactly one executor and read
   only after [Domain.join], which orders the write before the read. *)

let max_jobs = 64

let clamp_jobs j = if j < 1 then 1 else if j > max_jobs then max_jobs else j

(* [BA_JOBS]: [Ok None] when unset or empty, [Ok (Some j)] for an integer
   j >= 1, and otherwise the line that refuses it. *)
let env_jobs () =
  match Sys.getenv_opt "BA_JOBS" with
  | None | Some "" -> Ok None
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some j when j >= 1 -> Ok (Some j)
      | Some _ | None ->
          Error
            (Printf.sprintf "BA_JOBS must be an integer of at least 1, got %S"
               s))

let default_jobs () =
  match env_jobs () with
  | Ok (Some j) -> clamp_jobs j
  | Ok None | Error _ -> clamp_jobs (Domain.recommended_domain_count ())

let env_error () = match env_jobs () with Error e -> Some e | Ok _ -> None

let map_reduce ~jobs ~merge ~init thunks =
  let thunks = Array.of_list thunks in
  let count = Array.length thunks in
  let slots = Array.make count None in
  let next = Atomic.make 0 in
  let rec work () =
    let i = Atomic.fetch_and_add next 1 in
    if i < count then begin
      slots.(i) <-
        Some
          (try Ok (thunks.(i) ())
           with e -> Error (e, Printexc.get_raw_backtrace ()));
      work ()
    end
  in
  let helpers =
    Array.init
      (max 0 (min (clamp_jobs jobs) count - 1))
      (fun _ -> Domain.spawn work)
  in
  work ();
  Array.iter Domain.join helpers;
  Array.fold_left
    (fun acc slot ->
      match slot with
      | Some (Ok v) -> merge acc v
      | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
      | None -> invalid_arg "Bapar.map_reduce: missing result slot")
    init slots
