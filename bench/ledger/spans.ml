(* Self-time accounting for one traced trial.

   A span opens when the benchmark's wrapper calls into a layer and
   closes when the call returns. Spans nest (the adversary mines through
   eligibility, the sparse hook samples through it), so each open span
   keeps the time its children took, and on close only its self time —
   duration minus children — is charged to its own layer. Calls and self
   nanoseconds are summed in place per (round, layer): one n = 10^4 trial
   makes ~10^5 [sample] calls, so nothing is stored per call. Round -1 is
   set-up (env, adversary set-up, node init). *)

type layer =
  | Make_env
  | Init
  | Adv_setup
  | Step
  | Sparse
  | Intervene
  | Mine
  | Sample
  | Verify
  | Verify_many

let all =
  [ Make_env; Init; Adv_setup; Step; Sparse; Intervene; Mine; Sample; Verify;
    Verify_many ]

let index = function
  | Make_env -> 0
  | Init -> 1
  | Adv_setup -> 2
  | Step -> 3
  | Sparse -> 4
  | Intervene -> 5
  | Mine -> 6
  | Sample -> 7
  | Verify -> 8
  | Verify_many -> 9

let name = function
  | Make_env -> "make_env"
  | Init -> "init"
  | Adv_setup -> "adversary_setup"
  | Step -> "step"
  | Sparse -> "sparse"
  | Intervene -> "intervene"
  | Mine -> "mine"
  | Sample -> "sample"
  | Verify -> "verify"
  | Verify_many -> "verify_many"

let n_layers = List.length all

(* Nanoseconds on the monotonic clock; the external returns an unboxed
   int64, so reading it allocates nothing. *)
let now () = Int64.to_int (Monotonic_clock.now ())

let max_depth = 16

type t = {
  calls : int array;  (* cell (round + 1) * n_layers + layer *)
  self_ns : int array;
  mutable round : int;
  st_layer : int array;
  st_start : int array;
  st_child : int array;
  mutable depth : int;
  (* Engine-side counts taken at the same boundaries. *)
  mutable wires : int;
  mutable deliveries : int;
  mutable msg_bits_calls : int;
}

let create ~max_rounds =
  let cells = (max_rounds + 1) * n_layers in
  { calls = Array.make cells 0;
    self_ns = Array.make cells 0;
    round = -1;
    st_layer = Array.make max_depth 0;
    st_start = Array.make max_depth 0;
    st_child = Array.make max_depth 0;
    depth = 0;
    wires = 0;
    deliveries = 0;
    msg_bits_calls = 0 }

let reset t =
  Array.fill t.calls 0 (Array.length t.calls) 0;
  Array.fill t.self_ns 0 (Array.length t.self_ns) 0;
  t.round <- -1;
  t.depth <- 0;
  t.wires <- 0;
  t.deliveries <- 0;
  t.msg_bits_calls <- 0

let enter t layer =
  let d = t.depth in
  t.st_layer.(d) <- index layer;
  t.st_child.(d) <- 0;
  t.depth <- d + 1;
  t.st_start.(d) <- now ()

let leave t =
  let stop = now () in
  let d = t.depth - 1 in
  let dur = stop - t.st_start.(d) in
  let cell = ((t.round + 1) * n_layers) + t.st_layer.(d) in
  t.calls.(cell) <- t.calls.(cell) + 1;
  t.self_ns.(cell) <- t.self_ns.(cell) + dur - t.st_child.(d);
  t.depth <- d;
  if d > 0 then t.st_child.(d - 1) <- t.st_child.(d - 1) + dur

let layer_total arr layer =
  let i = index layer in
  let acc = ref 0 in
  for r = 0 to (Array.length arr / n_layers) - 1 do
    acc := !acc + arr.((r * n_layers) + i)
  done;
  !acc

let calls t layer = layer_total t.calls layer

let self_ns t layer = layer_total t.self_ns layer

let total_self_ns t = Array.fold_left ( + ) 0 t.self_ns

(* The non-empty (round, layer, calls, self ns) cells, in round order. *)
let cells t =
  let out = ref [] in
  for cell = Array.length t.calls - 1 downto 0 do
    if t.calls.(cell) > 0 then
      out :=
        ((cell / n_layers) - 1, List.nth all (cell mod n_layers), t.calls.(cell),
         t.self_ns.(cell))
        :: !out
  done;
  !out
