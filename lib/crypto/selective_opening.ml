exception Non_compliant of string

type instance_state = {
  key : Prf.key;
  mutable corrupted : bool;
  mutable challenged : (string, string) Hashtbl.t;
  mutable evaluated : (string, unit) Hashtbl.t;
}

type t = {
  b : bool;
  rng : Rng.t;
  mutable instances : instance_state array;
  mutable count : int;
}

let start ~b rng = { b; rng; instances = [||]; count = 0 }

let create_instance t =
  let inst =
    { key = Prf.gen t.rng;
      corrupted = false;
      challenged = Hashtbl.create 8;
      evaluated = Hashtbl.create 8 }
  in
  t.instances <- Array.append t.instances [| inst |];
  t.count <- t.count + 1;
  t.count - 1

let get t instance =
  if instance < 0 || instance >= t.count then
    invalid_arg "Selective_opening: unknown instance";
  t.instances.(instance)

let evaluate t ~instance msg =
  let inst = get t instance in
  if Hashtbl.mem inst.challenged msg then
    raise (Non_compliant "evaluate on a challenged point");
  Hashtbl.replace inst.evaluated msg ();
  Prf.eval inst.key msg

let corrupt t ~instance =
  let inst = get t instance in
  if Hashtbl.length inst.challenged > 0 then
    raise (Non_compliant "corrupting a challenged instance");
  inst.corrupted <- true;
  inst.key

let fresh_random t =
  String.init 32 (fun _ ->
      Char.chr (Int64.to_int (Int64.logand (Rng.next_int64 t.rng) 0xffL)))

let challenge t ~instance msg =
  let inst = get t instance in
  if inst.corrupted then
    raise (Non_compliant "challenging a corrupted instance");
  if Hashtbl.mem inst.evaluated msg then
    raise (Non_compliant "challenging an evaluated point");
  match Hashtbl.find_opt inst.challenged msg with
  | Some answer -> answer
  | None ->
      let answer = if t.b then Prf.eval inst.key msg else fresh_random t in
      Hashtbl.replace inst.challenged msg answer;
      answer

let advantage ~trials ~seed ~play =
  let rng = Rng.create seed in
  let correct = ref 0 in
  for _ = 1 to trials do
    let b = Rng.bool rng in
    let game = start ~b (Rng.split rng) in
    let guess = play game in
    if guess = b then incr correct
  done;
  abs_float ((float_of_int !correct /. float_of_int trials) -. 0.5)
