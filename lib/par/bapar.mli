(** Deterministic parallel fold over independent jobs.

    Monte-Carlo aggregates (E1–E11, ba_run --reps sweeps) are sums over
    independent seeded trials, so the trials can run on OCaml 5 domains
    in parallel — but the paper-fidelity story requires that turning
    parallelism on cannot change a single reported number. Hence:

    - jobs run in whatever order scheduling allows, but {!map_reduce}
      merges their results in job-index order, so its output is a pure
      function of the job list, independent of [jobs] and of how the
      domains interleave;
    - [~jobs:1] spawns no domain and runs every job in the calling
      domain, so it {e is} the sequential baseline, not a simulation of
      it.

    Each job must be self-contained (own RNG, own collectors, no writes
    to state shared with other jobs); nothing synchronises job bodies
    beyond handing out their indices. Stdlib-only: [Domain] and
    [Atomic], no [domainslib]. *)

val default_jobs : unit -> int
(** The [BA_JOBS] environment variable when set to a positive integer,
    otherwise [Domain.recommended_domain_count ()]; clamped to [1, 64].
    This is the default parallelism for every [--jobs] flag in the
    repository, and the env knob CI uses to exercise the parallel path.
    It never raises: a malformed [BA_JOBS] falls back as an unset one
    does, and {!env_error} reports it. *)

val env_error : unit -> string option
(** [Some line] when [BA_JOBS] is set, non-empty and not an integer of at
    least 1. [experiments.exe] and [ba_run] print it and exit 1 before
    running anything. *)

val map_reduce :
  jobs:int -> merge:('acc -> 'b -> 'acc) -> init:'acc -> (unit -> 'b) list -> 'acc
(** [map_reduce ~jobs ~merge ~init thunks] runs every thunk on the
    calling domain plus [min jobs (List.length thunks) - 1] domains
    spawned for this call and joined before it returns ([jobs] is
    clamped to [1, 64]), then folds the results {e in job-index order}:
    [merge (… (merge (merge init r0) r1) …) r(k-1)]. For a pure [merge]
    this equals [List.fold_left (fun acc t -> merge acc (t ())) init thunks]
    for every [jobs]. If any thunk raised, the exception of the
    smallest-index failing thunk is re-raised (with its backtrace) after
    every thunk has run. *)
