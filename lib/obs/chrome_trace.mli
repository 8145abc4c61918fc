(** Chrome [trace_event] JSON emission (the format Perfetto and
    chrome://tracing load): the event constructors [ba_obs causal
    --chrome] builds its [{traceEvents: [...]}] document from. Every
    event carries the required [name]/[ph]/[ts]/[pid]/[tid] keys, with
    timestamps in microseconds. *)

val metadata : pid:int -> tid:int -> name:string -> value:string -> Json.t
(** A ph ["M"] metadata event, e.g. [~name:"thread_name"] to label a
    tid. *)

val complete_event :
  pid:int ->
  tid:int ->
  name:string ->
  ts_us:float ->
  dur_us:float ->
  args:(string * Json.t) list ->
  Json.t
(** A ph ["X"] complete event (one slice). *)

val flow_event :
  pid:int ->
  tid:int ->
  name:string ->
  id:int ->
  ts_us:float ->
  [ `Start | `Step | `Finish ] ->
  Json.t
(** A flow event — ph ["s"], ["t"], or ["f"] — used in start/finish
    pairs sharing an [id] to draw an arrow between the slices enclosing
    the two timestamps. The finish carries ["bp":"e"] (bind to enclosing
    slice), the binding Perfetto expects for message-arrival arrows. *)

val instant_event :
  pid:int ->
  tid:int ->
  name:string ->
  ts_us:float ->
  args:(string * Json.t) list ->
  Json.t
(** A thread-scoped ph ["i"] instant event (zero-duration marker). *)

val document : Json.t list -> Json.t
(** Wrap events as a [{traceEvents: [...]}] trace document. *)
