(** The full experiment suite. [run_all] executes E1–E9 (and E1b) in
    order, printing each table — the output recorded in EXPERIMENTS.md.
    [quick] runs the same experiments with reduced repetitions for smoke
    testing. *)

type entry = {
  id : string;       (** "E1", "E1b", … *)
  claim : string;    (** the paper claim it regenerates *)
  run : ?reps:int -> ?seed:int64 -> unit -> Bastats.Table.t list;
}

val experiments : entry list
(** All experiments in presentation order. *)

val run_all : ?quick:bool -> ?json_path:string -> unit -> unit
(** Execute and print every experiment. [quick] (default false) divides
    repetition counts for fast smoke runs. Trials run at the
    {!Common.set_jobs} parallelism; every printed number and the JSON
    document are identical for every setting. [json_path], when given,
    additionally writes every table as one machine-readable JSON
    document ([{suite; quick; experiments: [{id; claim; tables}]}]). *)

val run_one : ?quick:bool -> ?json_path:string -> string -> bool
(** [run_one id] executes just the experiment named [id] (case
    insensitive); returns [false] if no such experiment exists. *)
