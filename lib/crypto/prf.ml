type key = string

let gen rng =
  String.init 32 (fun _ -> Char.chr (Int64.to_int (Int64.logand (Rng.next_int64 rng) 0xffL)))

let eval key msg = Hmac.mac ~key msg

type cached = Hmac.key_ctx

let cache key = Hmac.precompute ~key

let eval_cached c msg = Hmac.mac_with c msg

(* A 53-bit value read as a binary fraction in [0, 1); exact, since every
   such integer is a float. *)
let[@inline always] fraction top53 = float_of_int top53 *. 0x1p-53

let output_fraction rho =
  (* 56 bits fit a native int, so no boxed [Int64] is needed. *)
  let bits = ref 0 in
  for i = 0 to 6 do
    bits := (!bits lsl 8) lor Char.code rho.[i]
  done;
  fraction (!bits lsr 3)

let below_difficulty rho ~p = output_fraction rho < p

let eval_below c msg ~p = fraction (Hmac.mac_top53 c msg) < p

let coin c ~node ~msg ~p = fraction (Hmac.mac_node_top53 c ~node msg) < p
