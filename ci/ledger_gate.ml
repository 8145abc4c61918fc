(* The cost ledger's correctness pins, run by [dune build @ledger] from
   the repository root: every workload once at 3 s untraced and once at
   the default 20 s traced, through the benchmark's wrappers around every
   eligibility field. At 20 s the seed list is the one whose exact call
   totals bench/ledger/expected.json pins. A run passes when it exits 0,
   its last line reads "correct":true and no line reads "call count
   changed"; ledger_gate exits 1 unless every run passes.

     ledger_gate.exe LEDGER_EXE *)

let workloads = [ "dense-n801"; "real-n201"; "sparse-n10k"; "splitvote-n2001" ]

let modes = [ [ "--seconds"; "3" ]; [ "--seconds"; "20"; "--trace"; "1" ] ]

let contains ~sub s =
  let n = String.length sub in
  let rec at i =
    i + n <= String.length s && (String.equal (String.sub s i n) sub || at (i + 1))
  in
  at 0

let passes ledger args =
  let out = Filename.temp_file "ledger" ".out" in
  let code = Sys.command (Filename.quote_command ledger ~stdout:out args) in
  let text = In_channel.with_open_bin out In_channel.input_all in
  Sys.remove out;
  print_string text;
  let lines = String.split_on_char '\n' (String.trim text) in
  code = 0
  && contains ~sub:{|"correct":true|} (List.nth lines (List.length lines - 1))
  && not (List.exists (contains ~sub:"call count changed") lines)

let () =
  let failed =
    List.concat_map
      (fun w ->
        List.filter_map
          (fun mode ->
            let args = "--workload" :: w :: mode in
            if passes Sys.argv.(1) args then None
            else Some (String.concat " " args))
          modes)
      workloads
  in
  List.iter (fun run -> prerr_endline ("ledger_gate: failed: " ^ run)) failed;
  exit (if failed = [] then 0 else 1)
