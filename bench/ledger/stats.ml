(* Order statistics shared by the ledger and [compare]. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  let a = sorted xs in
  let k = Array.length a in
  if k mod 2 = 1 then a.(k / 2) else (a.((k / 2) - 1) +. a.(k / 2)) /. 2.0

let mean xs = List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let min_list = List.fold_left Float.min Float.infinity

(* (max - min) / median *)
let rel_range xs =
  let a = sorted xs in
  let m = median xs in
  if m = 0.0 then 0.0 else (a.(Array.length a - 1) -. a.(0)) /. m

(* Median of the pairwise slopes; 0 when every x is the same. *)
let theil_sen_slope xs ys =
  let pts = Array.of_list (List.combine xs ys) in
  let slopes = ref [] in
  Array.iteri
    (fun i (xi, yi) ->
      for j = i + 1 to Array.length pts - 1 do
        let xj, yj = pts.(j) in
        if xj <> xi then slopes := ((yj -. yi) /. (xj -. xi)) :: !slopes
      done)
    pts;
  if !slopes = [] then 0.0 else median !slopes

