let lower_tail_bound ~mu ~delta =
  if delta < 0.0 || delta > 1.0 || mu < 0.0 then
    invalid_arg "Chernoff.lower_tail_bound";
  exp (-.(delta *. delta) *. mu /. 2.0)

let committee_size_band ~lambda ~confidence =
  if lambda <= 0.0 || confidence <= 0.0 || confidence >= 1.0 then
    invalid_arg "Chernoff.committee_size_band";
  let alpha = 1.0 -. confidence in
  (* Solve exp(-d² λ / 3) = α/2 for d (3 ≥ 2+δ covers the upper tail for
     δ ≤ 1; the lower tail bound is tighter). *)
  let delta = sqrt (3.0 *. log (2.0 /. alpha) /. lambda) in
  (max 0.0 (lambda *. (1.0 -. delta)), lambda *. (1.0 +. delta))
