(* The library rules, checked against the compiler.

   Every library under lib/ is compiled with the flags in lib/flags.sexp:
   the warning set with warning 70 (missing-mli), [-open Barules], and
   Barules's alerts made fatal. This suite reads that file, compiles each
   snippet below with those flags, and requires every refused snippet to
   fail with its rule's own error and every allowed one to compile. So
   dropping the [-open], an alert or warning 70 from the file fails here.

   Usage: rules_check.exe OCAMLC FLAGS_FILE BARULES_CMI *)

let ocamlc, flags_file, barules_cmi =
  match Sys.argv with
  | [| _; ocamlc; flags; cmi |] -> (ocamlc, flags, cmi)
  | _ -> invalid_arg "usage: rules_check.exe OCAMLC FLAGS_FILE BARULES_CMI"

(* The atoms of the one list in the flags file; [;] starts a comment. *)
let flags =
  In_channel.with_open_bin flags_file In_channel.input_all
  |> String.split_on_char '\n'
  |> List.concat_map (fun line ->
         let code =
           match String.index_opt line ';' with
           | Some i -> String.sub line 0 i
           | None -> line
         in
         String.map (function '(' | ')' | '\t' -> ' ' | c -> c) code
         |> String.split_on_char ' '
         |> List.filter (fun atom -> atom <> ""))

let dir = Filename.temp_dir "rules_check" ""

let () =
  at_exit (fun () ->
      Sys.readdir dir
      |> Array.iter (fun f -> Sys.remove (Filename.concat dir f));
      Sys.rmdir dir)

(* Compiles the snippet [ml], after its interface [mli] when one is given,
   and returns the compiler's exit code and its diagnostics. *)
let compile ?(mli = Some "val f : unit -> int\n") name ml =
  let base = String.map (function ' ' | '.' -> '_' | c -> c) name in
  let path ext = Filename.concat dir (base ^ ext) in
  Out_channel.with_open_bin (path ".ml") (fun oc ->
      Out_channel.output_string oc ml);
  let sources =
    match mli with
    | None -> [ path ".ml" ]
    | Some text ->
        Out_channel.with_open_bin (path ".mli") (fun oc ->
            Out_channel.output_string oc text);
        [ path ".mli"; path ".ml" ]
  in
  let log = path ".log" in
  let code =
    Sys.command
      (Filename.quote_command ocamlc ~stdout:log ~stderr:log
         ([ "-c"; "-I"; Filename.dirname barules_cmi; "-I"; dir ]
          @ flags @ sources))
  in
  (code, In_channel.with_open_bin log In_channel.input_all)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
  at 0

let refused ?mli name ml error =
  Alcotest.test_case name `Quick (fun () ->
      let code, log = compile ?mli name ml in
      if code = 0 || not (contains log error) then
        Alcotest.failf "expected %S, got exit %d:\n%s" error code log)

let allowed name ml =
  Alcotest.test_case name `Quick (fun () ->
      let code, log = compile name ml in
      if code <> 0 then Alcotest.failf "refused (exit %d):\n%s" code log)

let poly_compare = "Error (alert poly_compare)"
let unsafe_obj = "Error (alert unsafe_obj)"
let lib_exit = "Error (alert lib_exit)"
let lib_failwith = "Error (alert lib_failwith)"

let () =
  Alcotest.run ~argv:[| Sys.argv.(0) |] "rules"
    [ ( "refused",
        [ refused "compare" "let f () = List.hd (List.sort compare [ 2; 1 ])\n"
            poly_compare;
          refused "Stdlib.compare"
            "let f () = List.hd (List.sort Stdlib.compare [ 2; 1 ])\n"
            poly_compare;
          refused "Obj.magic" "let f () : int = Obj.magic 1\n" unsafe_obj;
          refused "Stdlib.Obj" "let f () : int = Stdlib.Obj.magic 1\n"
            unsafe_obj;
          refused "Obj after a quote"
            "let f () : int = ignore {|\"|}; Obj.magic 1\n" unsafe_obj;
          refused "exit" "let f () : int = exit 1\n" lib_exit;
          refused "Stdlib.exit" "let f () : int = Stdlib.exit 1\n" lib_exit;
          refused "failwith" "let f () : int = failwith \"x\"\n" lib_failwith;
          refused "Stdlib.failwith" "let f () : int = Stdlib.failwith \"x\"\n"
            lib_failwith;
          refused ~mli:None "missing .mli" "let f () = 0\n"
            "Error (warning 70 [missing-mli])" ] );
      ( "allowed",
        [ allowed "quoted string"
            "let f () = String.length {|List.sort compare; Obj.magic; exit|}\n";
          allowed "comment"
            "(* List.sort compare; Obj.magic 1; exit 1; failwith \"x\" *)\n\
             let f () = 0\n";
          allowed "Int.compare"
            "let f () = List.hd (List.sort Int.compare [ 2; 1 ])\n";
          allowed "local compare"
            "let compare a b = Int.compare b a\n\
             let f () = List.hd (List.sort compare [ 1; 2 ])\n";
          allowed "rest of Stdlib"
            "let f () = Stdlib.List.length [ Stdlib.min 1 2 ]\n" ] ) ]
