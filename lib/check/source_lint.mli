(** Source-level lint for the repository's OCaml code.

    A small, dependency-free scanner (no compiler-libs, no ppx) that
    walks [lib/**/*.ml] and flags banned patterns. Comments and string
    literals are blanked before matching, so prose never trips a rule.

    Rules:

    - {!Obj_magic}: any use of [Obj.magic] — type-safety escape hatch;
    - {!Poly_compare}: bare polymorphic [compare] (or
      [Stdlib.compare]) — on abstract key types (credentials,
      signatures, RNG states) structural comparison silently depends on
      representation; use the type's own [compare];
    - {!Stdlib_exit}: [exit] calls inside libraries — only executables
      may decide the process's fate;
    - {!Failwith_hot_path}: [failwith] inside the engine's per-round
      loop ([while !running … done] in [engine.ml]) — the hot path must
      referee via {!Basim.Engine.Illegal_action}, not anonymous
      failures;
    - {!Missing_mli}: a library [.ml] without a sibling [.mli] — every
      library module ships an explicit interface.

    What an adversary may do is not a source rule: the engine refuses
    every action its corruption model forbids at runtime, and
    [Trace_lint] re-checks the trace. *)

type rule =
  | Obj_magic
  | Poly_compare
  | Stdlib_exit
  | Failwith_hot_path
  | Missing_mli

type finding = {
  rule : rule;
  file : string;  (** path relative to the scan root *)
  line : int;  (** 1-based *)
  excerpt : string;  (** the offending line, trimmed *)
}

val rule_name : rule -> string
(** Stable kebab-case tag, e.g. ["poly-compare"]. *)

val blank_comments_and_strings : string -> string
(** The pre-matching pass: comment bodies (nested, with
    strings-in-comments), string literals, and character literals are
    replaced by spaces; line structure is preserved. Exposed for
    testing. *)

val scan_source : path:string -> string -> finding list
(** Lint one file's contents. [path] is used for reporting and to
    decide file-specific rules (the hot-path rule applies to
    [engine.ml]). The {!Missing_mli} rule needs the file system and
    only fires from {!scan_tree}. *)

val scan_tree : root:string -> finding list
(** Walk [root/lib] recursively, lint every [.ml], and check every
    library module for a sibling [.mli]. Findings are sorted by file
    and line. *)

val findings_to_json : finding list -> Baobs.Json.t

val pp_finding : Format.formatter -> finding -> unit
