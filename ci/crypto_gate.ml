(* [dune build @crypto-gate]: five Bechamel microbenchmarks of the
   cryptographic substrate, each timed in three passes. A benchmark fails
   when the median of its passes is more than 35% above its ns_per_run in
   BASELINE, or when no pass estimated it. The medians go to OUT as a
   ba-bench/v1 report naming the SHA-256 kernel that ran. A wrong
   argument count, an unreadable baseline or one lacking a row, and an
   OUT that cannot be created are refused with one line before anything
   is timed; a failed write of OUT is one line after timing.

     crypto_gate.exe BASELINE OUT *)

open Bechamel
open Toolkit

let threshold = 0.35

let passes = 3

let quota_s = 0.1

let refuse msg =
  prerr_endline ("crypto_gate: " ^ msg);
  exit 1

let tests =
  let rng = Bacrypto.Rng.create 99L in
  let pki = Bacrypto.Pki.setup ~n:8 rng in
  let sk = Bacrypto.Pki.secret_key pki 0 in
  let pk = Bacrypto.Pki.public_key pki 0 in
  let params = Bacrypto.Pki.params pki in
  let payload = String.make 1024 'x' in
  let key = Bacrypto.Prf.gen rng in
  let counter = ref 0 in
  let precomputed = Bacrypto.Vrf.eval params sk "bench-verify" in
  [ Test.make ~name:"sha256-1KiB"
      (Staged.stage (fun () -> ignore (Bacrypto.Sha256.digest_string payload)));
    Test.make ~name:"hmac-1KiB"
      (Staged.stage (fun () -> ignore (Bacrypto.Hmac.mac ~key payload)));
    Test.make ~name:"vrf-eval"
      (Staged.stage (fun () ->
           incr counter;
           ignore (Bacrypto.Vrf.eval params sk (string_of_int !counter))));
    Test.make ~name:"vrf-verify"
      (Staged.stage (fun () ->
           ignore (Bacrypto.Vrf.verify params pk "bench-verify" precomputed)));
    Test.make ~name:"fmine-mine"
      (Staged.stage
         (let fmine = Bafmine.Fmine.create (Bacrypto.Rng.create 1L) in
          fun () ->
            incr counter;
            ignore
              (Bafmine.Fmine.mine fmine ~node:(!counter mod 1000)
                 ~msg:"Vote:1:0" ~p:0.1))) ]

let names = List.map (fun t -> "ba/crypto/" ^ Test.name t) tests

(* Each row's baseline ns/run, in [names] order. *)
let baseline path =
  let open Baobs.Json in
  match
    In_channel.with_open_bin path In_channel.input_all
    |> of_string |> member_exn "results" |> as_list
    |> List.map (fun r ->
           (as_string (member_exn "name" r), member_exn "ns_per_run" r))
  with
  | exception Sys_error e -> refuse e
  | exception Parse_error e -> refuse (path ^ ": " ^ e)
  | rows ->
      List.map
        (fun name ->
          match Option.map as_float (List.assoc_opt name rows) with
          | Some ns when ns > 0.0 && Float.is_finite ns -> ns
          | exception Parse_error _ | Some _ | None ->
              refuse
                (Printf.sprintf "%s: no positive ns_per_run for %s" path name))
        names

(* The middle estimate; of two, the larger. *)
let median estimates =
  match List.sort Float.compare estimates with
  | [] -> None
  | sorted -> Some (List.nth sorted (List.length sorted / 2))

(* Each row's median over the passes that estimated it, in [names]
   order. *)
let measure () =
  let cfg = Benchmark.cfg ~limit:100 ~quota:(Time.second quota_s) ~kde:None () in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let grouped =
    Test.make_grouped ~name:"ba" [ Test.make_grouped ~name:"crypto" tests ]
  in
  let runs =
    List.init passes (fun _ ->
        Analyze.all ols Instance.monotonic_clock
          (Benchmark.all cfg Instance.[ monotonic_clock ] grouped))
  in
  let estimate name results =
    match Option.map Analyze.OLS.estimates (Hashtbl.find_opt results name) with
    | Some (Some (ns :: _)) when Float.is_finite ns -> Some ns
    | Some (Some _ | None) | None -> None
  in
  List.map (fun name -> median (List.filter_map (estimate name) runs)) names

let report ~kernel medians =
  let open Baobs.Json in
  let result name ns =
    Obj
      [ ("name", String name);
        ("ns_per_run", Option.fold ~none:Null ~some:(fun t -> Float t) ns) ]
  in
  Obj
    [ ("schema", String "ba-bench/v1");
      ("quota_s", Float quota_s);
      ("sha256_kernel", String kernel);
      ("results", List (List.map2 result names medians)) ]

(* Prints the row; returns its failure, if any. *)
let judge name base median =
  match median with
  | None ->
      Printf.printf "%-24s %12.0f %12s\n" name base "-";
      Some (Printf.sprintf "%s: no estimate in %d passes" name passes)
  | Some ns ->
      let ratio = ns /. base in
      Printf.printf "%-24s %12.0f %12.0f %7.2fx\n" name base ns ratio;
      if ratio <= 1.0 +. threshold then None
      else
        Some
          (Printf.sprintf "%s: median %.0f ns is %.2fx the baseline's %g ns"
             name ns ratio base)

let () =
  let base_path, out =
    match Sys.argv with
    | [| _; base; out |] -> (base, out)
    | _ -> refuse "usage: crypto_gate.exe BASELINE OUT"
  in
  let base = baseline base_path in
  Result.iter_error refuse (Baobs.Jsonl.validate_path out);
  let kernel = Bacrypto.Sha256.(kernel_name kernel) in
  let medians = measure () in
  Printf.printf
    "crypto gate: median of %d passes, fails above %.2fx %s (SHA-256 kernel: \
     %s)\n"
    passes (1.0 +. threshold) base_path kernel;
  Printf.printf "%-24s %12s %12s %8s\n" "benchmark" "baseline ns" "median ns"
    "ratio";
  let failures =
    List.filter_map
      (fun (name, (b, m)) -> judge name b m)
      (List.combine names (List.combine base medians))
  in
  (try Baobs.Json.to_file out (report ~kernel medians)
   with Sys_error e -> refuse e);
  flush stdout;
  List.iter (fun f -> prerr_endline ("crypto_gate: " ^ f)) failures;
  exit (if failures = [] then 0 else 1)
