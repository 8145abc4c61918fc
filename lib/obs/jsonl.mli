(** Streaming JSON-Lines sink: one compact JSON document per line,
    written as events arrive (no in-memory accumulation). *)

type t

val to_channel : out_channel -> t

val to_buffer : Buffer.t -> t

val emit : t -> Json.t -> unit

val validate_path : string -> (unit, string) result
(** Check that [path] is writable in principle — its parent directory
    exists and [path] is not itself a directory — so CLIs can reject a
    doomed output destination before a long run instead of after it.
    A race with concurrent filesystem changes is still possible; this
    is an early, best-effort check, not a guarantee. *)
