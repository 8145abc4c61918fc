(** Bench-regression detection: diff two [ba-bench/v1] reports
    (the [BENCH_*.json] files [bench/main.exe] writes) by ns/run.

    A benchmark counts as a {e regression} when its current estimate
    exceeds the base by more than the threshold (default 20%); the
    symmetric improvement, unchanged, added, removed, and
    missing-estimate cases are reported but never gate. Consumed by
    [ba_obs compare]. *)

type status = Regression | Improvement | Unchanged | Added | Removed | No_estimate

type row = {
  name : string;
  base_ns : float option;
  cur_ns : float option;
  ratio : float option;  (** current / base, when both estimates exist *)
  status : status;
}

type t = {
  threshold : float;
  rows : row list;  (** union of both reports' benchmarks, sorted by name *)
}

val status_name : status -> string

val results_of_json : Json.t -> (string * float option) list
(** The [(name, ns_per_run)] pairs of a report's [results] section.
    @raise Json.Parse_error on a malformed report. *)

val diff :
  ?threshold:float -> ?only:string -> base:Json.t -> current:Json.t -> unit -> t
(** Compare two parsed reports. [threshold] is a fraction (0.2 = 20%).
    [only] restricts the comparison to benchmarks whose name starts with
    the given prefix (e.g. ["ba/crypto/"] to gate on the low-noise
    microbenches).
    @raise Invalid_argument unless [threshold] is positive and
    finite. *)

val regressions : t -> row list

val has_regressions : t -> bool

val exit_code : t -> int
(** [1] when any row regressed, else [0] — the CLI's exit status. *)

val render : t -> string
(** Plain-text regression table. *)

val to_json : t -> Json.t
(** Machine-readable comparison ([ba-bench-compare/v1]), which
    [ba_obs compare --json] writes. *)
