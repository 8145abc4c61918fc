(* Tests for the statistics substrate. *)

open Bastats

let feq ?(eps = 1e-9) a b = abs_float (a -. b) < eps

(* --- Summary ---------------------------------------------------------- *)

let test_summary_basic () =
  let s = Summary.of_list [ 1.0; 2.0; 3.0; 4.0; 5.0 ] in
  Alcotest.(check int) "count" 5 s.Summary.count;
  Alcotest.(check bool) "mean" true (feq s.Summary.mean 3.0);
  Alcotest.(check bool) "min" true (feq s.Summary.min 1.0);
  Alcotest.(check bool) "max" true (feq s.Summary.max 5.0);
  Alcotest.(check bool) "median" true (feq s.Summary.p50 3.0);
  Alcotest.(check bool) "stddev" true (feq s.Summary.stddev (sqrt 2.5))

let test_summary_single () =
  let s = Summary.of_list [ 7.0 ] in
  Alcotest.(check bool) "mean" true (feq s.Summary.mean 7.0);
  Alcotest.(check bool) "stddev zero" true (feq s.Summary.stddev 0.0);
  Alcotest.(check bool) "p95" true (feq s.Summary.p95 7.0)

let test_summary_empty () =
  Alcotest.check_raises "empty" (Invalid_argument "Summary.of_list: empty")
    (fun () -> ignore (Summary.of_list []))

let test_quantile_interpolation () =
  let sorted = [| 0.0; 10.0 |] in
  Alcotest.(check bool) "q=0.5 interpolates" true
    (feq (Summary.quantile sorted 0.5) 5.0);
  Alcotest.(check bool) "q=0" true (feq (Summary.quantile sorted 0.0) 0.0);
  Alcotest.(check bool) "q=1" true (feq (Summary.quantile sorted 1.0) 10.0)

let test_summary_of_ints () =
  let s = Summary.of_ints [ 2; 4; 6 ] in
  Alcotest.(check bool) "mean" true (feq s.Summary.mean 4.0)

(* --- Binomial --------------------------------------------------------- *)

let test_binomial_pmf_sums_to_one () =
  let n = 20 and p = 0.3 in
  let total = ref 0.0 in
  for k = 0 to n do
    total := !total +. Binomial.pmf ~n ~p k
  done;
  Alcotest.(check bool) "sums to 1" true (feq ~eps:1e-9 !total 1.0)

let test_binomial_pmf_known_value () =
  (* C(4,2) 0.5^4 = 6/16 *)
  Alcotest.(check bool) "pmf(4, .5, 2)" true
    (feq ~eps:1e-9 (Binomial.pmf ~n:4 ~p:0.5 2) 0.375)

let test_binomial_cdf_monotone () =
  let n = 30 and p = 0.4 in
  let prev = ref 0.0 in
  for k = 0 to n do
    let c = Binomial.cdf ~n ~p k in
    Alcotest.(check bool) "monotone" true (c >= !prev -. 1e-12);
    prev := c
  done;
  Alcotest.(check bool) "cdf(n) = 1" true (feq ~eps:1e-9 !prev 1.0)

let test_binomial_tails_complement () =
  let n = 25 and p = 0.2 in
  for k = 0 to n do
    let both = Binomial.cdf ~n ~p (k - 1) +. Binomial.upper_tail ~n ~p k in
    Alcotest.(check bool) "cdf + upper_tail = 1" true (feq ~eps:1e-9 both 1.0)
  done

let test_binomial_degenerate_p () =
  Alcotest.(check bool) "p=0 all mass at 0" true
    (feq (Binomial.pmf ~n:10 ~p:0.0 0) 1.0);
  Alcotest.(check bool) "p=1 all mass at n" true
    (feq (Binomial.pmf ~n:10 ~p:1.0 10) 1.0)

let test_wilson_contains_phat () =
  let lo, hi = Binomial.wilson_interval ~successes:30 ~trials:100 ~z:1.96 in
  Alcotest.(check bool) "contains phat" true (lo < 0.3 && 0.3 < hi);
  Alcotest.(check bool) "within [0,1]" true (lo >= 0.0 && hi <= 1.0)

let test_wilson_extremes () =
  let lo, hi = Binomial.wilson_interval ~successes:0 ~trials:50 ~z:1.96 in
  Alcotest.(check bool) "zero successes: lo = 0" true (feq lo 0.0);
  Alcotest.(check bool) "zero successes: hi > 0" true (hi > 0.0);
  let lo', hi' = Binomial.wilson_interval ~successes:50 ~trials:50 ~z:1.96 in
  Alcotest.(check bool) "all successes: hi = 1" true (feq hi' 1.0);
  Alcotest.(check bool) "all successes: lo < 1" true (lo' < 1.0)

(* --- Chernoff --------------------------------------------------------- *)

let test_chernoff_bounds_shrink_with_mu () =
  let b1 = Chernoff.lower_tail_bound ~mu:10.0 ~delta:0.5 in
  let b2 = Chernoff.lower_tail_bound ~mu:100.0 ~delta:0.5 in
  Alcotest.(check bool) "larger mu, smaller bound" true (b2 < b1)

let test_chernoff_band_contains_lambda () =
  let lo, hi = Chernoff.committee_size_band ~lambda:40.0 ~confidence:0.99 in
  Alcotest.(check bool) "band around λ" true (lo < 40.0 && 40.0 < hi);
  Alcotest.(check bool) "band nonneg" true (lo >= 0.0)

let test_chernoff_band_empirical () =
  (* 10k Binomial(1000, 40/1000) committees must fall inside the 99.9%
     band nearly always. *)
  let rng = Bacrypto.Rng.create 77L in
  let lo, hi = Chernoff.committee_size_band ~lambda:40.0 ~confidence:0.999 in
  let outside = ref 0 in
  for _ = 1 to 2000 do
    let size = ref 0 in
    for _ = 1 to 1000 do
      if Bacrypto.Rng.bernoulli rng 0.04 then incr size
    done;
    if float_of_int !size < lo || float_of_int !size > hi then incr outside
  done;
  Alcotest.(check bool)
    (Printf.sprintf "%d/2000 outside 99.9%% band" !outside)
    true (!outside <= 10)

(* --- Histogram -------------------------------------------------------- *)

let test_histogram_counts () =
  let h = Histogram.create () in
  Histogram.add_many h [ 1; 2; 2; 3; 3; 3 ];
  Alcotest.(check int) "count 1" 1 (Histogram.count h 1);
  Alcotest.(check int) "count 2" 2 (Histogram.count h 2);
  Alcotest.(check int) "count 3" 3 (Histogram.count h 3);
  Alcotest.(check int) "count missing" 0 (Histogram.count h 9);
  Alcotest.(check int) "total" 6 (Histogram.total h);
  Alcotest.(check (option int)) "mode" (Some 3) (Histogram.mode h)

let test_histogram_bins_sorted () =
  let h = Histogram.create () in
  Histogram.add_many h [ 5; 1; 3; 1 ];
  Alcotest.(check (list (pair int int))) "bins" [ (1, 2); (3, 1); (5, 1) ]
    (Histogram.bins h)

let test_histogram_render_nonempty () =
  let h = Histogram.create () in
  Histogram.add_many h [ 1; 1; 2 ];
  let s = Histogram.render h in
  Alcotest.(check bool) "contains bars" true (String.length s > 0)

(* --- Table ------------------------------------------------------------ *)

let test_table_render () =
  let t = Table.create ~title:"demo" ~columns:[ "n"; "value" ] in
  Table.add_row t [ "64"; "1.5" ];
  Table.add_row t [ "128"; "2.25" ];
  Table.add_note t "a note";
  let s = Table.render t in
  Alcotest.(check bool) "title present" true
    (String.length s > 0 && String.sub s 0 7 = "== demo");
  Alcotest.(check bool) "note present" true
    (let re = "a note" in
     let rec contains i =
       i + String.length re <= String.length s
       && (String.sub s i (String.length re) = re || contains (i + 1))
     in
     contains 0)

let test_table_arity_check () =
  let t = Table.create ~title:"demo" ~columns:[ "a"; "b" ] in
  Alcotest.check_raises "arity" (Invalid_argument "Table.add_row: arity mismatch")
    (fun () -> Table.add_row t [ "only-one" ])

let test_table_fmt () =
  Alcotest.(check string) "int thousands" "1,234,567" (Table.fmt_int 1234567);
  Alcotest.(check string) "small int" "42" (Table.fmt_int 42);
  Alcotest.(check string) "negative" "-1,000" (Table.fmt_int (-1000));
  Alcotest.(check string) "float small" "0.500" (Table.fmt_float 0.5);
  Alcotest.(check string) "float int-like" "3" (Table.fmt_float 3.0)

(* --- QCheck properties ------------------------------------------------- *)

let qcheck_tests =
  let open QCheck in
  [ Test.make ~name:"summary mean within [min,max]" ~count:200
      (list_of_size Gen.(1 -- 50) (float_range (-1000.0) 1000.0))
      (fun xs ->
        xs = []
        ||
        let s = Summary.of_list xs in
        s.Summary.mean >= s.Summary.min -. 1e-9
        && s.Summary.mean <= s.Summary.max +. 1e-9);
    Test.make ~name:"quantiles monotone" ~count:200
      (list_of_size Gen.(1 -- 50) (float_range 0.0 100.0))
      (fun xs ->
        xs = []
        ||
        let s = Summary.of_list xs in
        s.Summary.p50 <= s.Summary.p95 +. 1e-9
        && s.Summary.p95 <= s.Summary.p99 +. 1e-9);
    Test.make ~name:"wilson interval ordered" ~count:200
      (pair (int_range 0 100) (int_range 1 100))
      (fun (s, t) ->
        let s = min s t in
        let lo, hi = Binomial.wilson_interval ~successes:s ~trials:t ~z:1.96 in
        lo <= hi);
    Test.make ~name:"histogram total = additions" ~count:100
      (list_of_size Gen.(0 -- 100) (int_range 0 20))
      (fun xs ->
        let h = Histogram.create () in
        Histogram.add_many h xs;
        Histogram.total h = List.length xs);
  ]

let () =
  let qcheck =
    List.map
      (QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0xba008 |]))
      qcheck_tests
  in
  Alcotest.run "stats"
    [ ( "summary",
        [ Alcotest.test_case "basic" `Quick test_summary_basic;
          Alcotest.test_case "single" `Quick test_summary_single;
          Alcotest.test_case "empty" `Quick test_summary_empty;
          Alcotest.test_case "quantile interpolation" `Quick test_quantile_interpolation;
          Alcotest.test_case "of_ints" `Quick test_summary_of_ints ] );
      ( "binomial",
        [ Alcotest.test_case "pmf sums to one" `Quick test_binomial_pmf_sums_to_one;
          Alcotest.test_case "pmf known value" `Quick test_binomial_pmf_known_value;
          Alcotest.test_case "cdf monotone" `Quick test_binomial_cdf_monotone;
          Alcotest.test_case "tails complement" `Quick test_binomial_tails_complement;
          Alcotest.test_case "degenerate p" `Quick test_binomial_degenerate_p;
          Alcotest.test_case "wilson contains phat" `Quick test_wilson_contains_phat;
          Alcotest.test_case "wilson extremes" `Quick test_wilson_extremes ] );
      ( "chernoff",
        [ Alcotest.test_case "shrinks with mu" `Quick test_chernoff_bounds_shrink_with_mu;
          Alcotest.test_case "band contains lambda" `Quick test_chernoff_band_contains_lambda;
          Alcotest.test_case "band empirical" `Quick test_chernoff_band_empirical ] );
      ( "histogram",
        [ Alcotest.test_case "counts" `Quick test_histogram_counts;
          Alcotest.test_case "bins sorted" `Quick test_histogram_bins_sorted;
          Alcotest.test_case "render" `Quick test_histogram_render_nonempty ] );
      ( "table",
        [ Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "arity check" `Quick test_table_arity_check;
          Alcotest.test_case "formatting" `Quick test_table_fmt ] );
      ("properties", qcheck) ]
