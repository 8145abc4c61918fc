(** The protocol registry: one entry per [ba_run -p] name.

    An entry wires a protocol to everything a front end needs to run it
    by name — its crowd hook, its message labeler, the adversaries it
    accepts by [-a] name, its own usage errors and, where one exists,
    its schedule compiler. Each entry hides its env, state and message
    types behind {!entry}, so [ba_run] is one generic runner over an
    entry and [ba_explore] a search over the entries with a compiler.
    Adding a protocol is adding an entry. *)

type ('env, 'state, 'msg) t = {
  name : string;  (** the [-p] name *)
  protocol :
    n:int -> Bacore.Params.t -> ('env, 'state, 'msg) Basim.Engine.protocol;
      (** [params.lambda] is static-committee's committee size;
          dolev-strong reads [n] for [f = (n − 1) / 3]. *)
  crowd : (unit -> ('env, 'state, 'msg) Basim.Engine.sparse_step) option;
      (** the crowd-hook maker, [None] for the dense-only baselines *)
  labeler : 'msg -> string;  (** message kinds for causal traces *)
  adversaries : (string * (unit -> ('env, 'msg) Basim.Engine.adversary)) list;
      (** each accepted [-a] name with a fresh-adversary maker: none,
          eraser and silencer everywhere, plus the attacks on this
          protocol's own messages *)
  refusal : string;  (** the usage error for any other [-a] name *)
  check : n:int -> Bacore.Params.t -> string option;
      (** the protocol's own usage error, if [n] or [params] is one *)
  search : ('env, 'msg) Basim.Schedule.compiler option;
      (** the schedule compiler [ba_explore] searches with *)
}

type entry = Entry : ('env, 'state, 'msg) t -> entry

val entries : entry list
(** Every protocol, in [ba_run --help] order. *)

val adversary_names : string list
(** Every [-a] name, in [--help] order. *)

val max_rounds : Bacore.Params.t -> int
(** The round cap of every run: [4 · max_epochs + 12]. *)

val max_epochs : int
(** The largest [max_epochs] whose {!max_rounds} fits in an [int]; both
    CLIs reject a larger [--epochs]. *)
