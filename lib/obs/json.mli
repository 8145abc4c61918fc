(** Minimal dependency-free JSON: a value type, a compact printer, and a
    strict parser. Used by every telemetry exporter (metric series, trace
    JSONL, bench results, experiment tables) — the toolchain has no
    [yojson], so this is the repository's one JSON implementation. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string

val to_string : t -> string
(** Compact (single-line) rendering. Non-finite floats print as [null]. *)

val to_buffer : Buffer.t -> t -> unit

val to_file : string -> t -> unit
(** [to_file path j] writes [to_string j] and a newline to [path],
    creating or truncating it.
    @raise Sys_error when [path] cannot be opened or written. *)

val of_string : string -> t
(** Strict parse of one JSON document.
    @raise Parse_error on malformed input or trailing garbage. *)

val member : string -> t -> t option
(** Field lookup on an [Obj]; [None] on other constructors. *)

val member_exn : string -> t -> t
(** @raise Parse_error when the member is absent. *)

val as_int : t -> int

val as_float : t -> float
(** Accepts [Int] too. *)

val as_string : t -> string

val as_bool : t -> bool

val as_list : t -> t list
