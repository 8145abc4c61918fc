(* Crypto microbenchmarks: a Bechamel suite over the cryptographic
   substrate (SHA-256, HMAC, VRF evaluation and verification, F_mine),
   written as a ba-bench/v1 report that also names the SHA-256 kernel
   this CPU ran; [ba_obs compare] gates it against a committed baseline.
   Protocol-level costs are measured by bench/ledger.

     dune exec bench/main.exe              # full run, writes BENCH_1.json
     dune exec bench/main.exe -- --quick   # shorter quota per benchmark
     dune exec bench/main.exe -- --out BENCH_2.json   # write elsewhere
*)

open Bechamel
open Toolkit

(* [--quick] [--out FILE]: FILE is where to write the report (default
   BENCH_1.json; the committed baseline @crypto-gate gates against is
   BENCH_5.json).
   Any other argument exits 1, so a caller expecting a gate here is not
   answered by a silent pass. *)
let quick, bench_json_path =
  let rec parse quick out = function
    | [] -> (quick, out)
    | "--quick" :: rest -> parse true out rest
    | "--out" :: path :: rest -> parse quick path rest
    | arg :: _ ->
        prerr_endline
          ("bench: unexpected argument " ^ arg
         ^ " (usage: main.exe [--quick] [--out FILE])");
        exit 1
  in
  parse false "BENCH_1.json" (List.tl (Array.to_list Sys.argv))

let crypto_tests =
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

let estimates results =
  Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results []
  |> List.sort compare
  |> List.map (fun (name, ols) ->
         let ns =
           match Analyze.OLS.estimates ols with
           | Some (t :: _) -> Some t
           | Some [] | None -> None
         in
         (name, ns))

let report named =
  List.iter
    (fun (name, ns) ->
      let estimate =
        match ns with
        | Some t -> Printf.sprintf "%12.0f ns/run" t
        | None -> "(no estimate)"
      in
      Printf.printf "%-45s %s\n" name estimate)
    named

let sha256_kernel = Bacrypto.Sha256.(kernel_name kernel)

let write_bench_json ~quota_s named =
  let open Baobs.Json in
  let results =
    List.map
      (fun (name, ns) ->
        Obj
          [ ("name", String name);
            ("ns_per_run", match ns with Some t -> Float t | None -> Null) ])
      named
  in
  let json =
    Obj
      [ ("schema", String "ba-bench/v1");
        ("quick", Bool quick);
        ("quota_s", Float quota_s);
        ("sha256_kernel", String sha256_kernel);
        ("results", List results) ]
  in
  let oc = open_out bench_json_path in
  output_string oc (to_string json);
  output_char oc '\n';
  close_out oc;
  Printf.printf "\nwrote %s (%d estimates)\n" bench_json_path
    (List.length named)

let () =
  Printf.printf "### Bechamel crypto microbenchmarks (SHA-256 kernel: %s)\n\n"
    sha256_kernel;
  let instances = Instance.[ monotonic_clock ] in
  let quota_s = if quick then 0.1 else 0.5 in
  let cfg = Benchmark.cfg ~limit:100 ~quota:(Time.second quota_s) ~kde:None () in
  let grouped =
    Test.make_grouped ~name:"ba"
      [ Test.make_grouped ~name:"crypto" crypto_tests ]
  in
  let raw = Benchmark.all cfg instances grouped in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let named = estimates results in
  report named;
  write_bench_json ~quota_s named;
  print_endline "\nbench: done"
