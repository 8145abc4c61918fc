(** One findings-rendering path for every checking tool.

    [ba_run --check-trace] and [ba_explore] both end in "print typed
    findings, exit non-zero if any"; this module is the shared tail, so
    the text format and the JSON shape ([ba-findings/v1]) stay
    consistent across tools. Exit codes remain each tool's own contract
    (ba_run exits 3 on trace findings; ba_explore exits 2 on a
    discovered violation). *)

type item = {
  label : string;  (** stable machine tag, e.g. ["over-budget"], ["validity"] *)
  detail : string;  (** one-line human rendering *)
  data : Baobs.Json.t;  (** tool-specific structured payload *)
}

val of_trace_findings : Trace_lint.finding list -> item list
(** Trace-lint findings as report items: label = {!Trace_lint.kind_name},
    detail = {!Trace_lint.pp_finding}, data = the finding's JSON. *)

val to_json : tool:string -> item list -> Baobs.Json.t
(** [{ schema = "ba-findings/v1"; tool; count; findings = [{label;
    detail; data}] }]. *)

val emit_text : tool:string -> item list -> bool
(** Print the canonical text rendering and return whether there were
    findings: ["<tool>: clean"] to stdout when the list is empty;
    otherwise one ["<tool>: <detail>"] line per item plus a
    ["<tool>: N finding(s)"] summary to stderr. *)
