type t = {
  count : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  p50 : float;
  p95 : float;
  p99 : float;
}

let quantile sorted q =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Summary.quantile: empty";
  if q < 0.0 || q > 1.0 then invalid_arg "Summary.quantile: q outside [0,1]";
  if n = 1 then sorted.(0)
  else begin
    let pos = q *. float_of_int (n - 1) in
    let lo = int_of_float (floor pos) in
    let hi = min (lo + 1) (n - 1) in
    let frac = pos -. float_of_int lo in
    (sorted.(lo) *. (1.0 -. frac)) +. (sorted.(hi) *. frac)
  end

let of_list samples =
  let n = List.length samples in
  if n = 0 then invalid_arg "Summary.of_list: empty";
  let arr = Array.of_list samples in
  Array.sort Float.compare arr;
  let fn = float_of_int n in
  let mean = List.fold_left ( +. ) 0.0 samples /. fn in
  let var =
    if n = 1 then 0.0
    else
      List.fold_left (fun acc x -> acc +. ((x -. mean) ** 2.0)) 0.0 samples
      /. (fn -. 1.0)
  in
  { count = n;
    mean;
    stddev = sqrt var;
    min = arr.(0);
    max = arr.(n - 1);
    p50 = quantile arr 0.5;
    p95 = quantile arr 0.95;
    p99 = quantile arr 0.99 }

let of_ints samples = of_list (List.map float_of_int samples)
