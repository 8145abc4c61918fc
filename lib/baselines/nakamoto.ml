type block = { height : int; miner : int; bit : bool; id : string }

type env = { n : int; p : float; confirmations : int }

type msg = Chain of block list

let msg_kind (Chain _) = "chain"

type state = {
  me : int;
  input : bool;
  rng : Bacrypto.Rng.t;
  mutable chain : block list;  (* highest first; [] = genesis only *)
  mutable out : bool option;
  mutable stopped : bool;
}

let chain_bit chain =
  (* The decided bit travels in every block; genesis-only chains have
     no bit yet. *)
  match List.rev chain with [] -> None | first :: _ -> Some first.bit

(* Longest chain wins; ties by lexicographically smallest tip id. *)
let better_than candidate current =
  let lc = List.length candidate and lk = List.length current in
  if lc <> lk then lc > lk
  else
    match (candidate, current) with
    | [], _ -> false
    | _ :: _, [] -> true
    | tip_c :: _, tip_k :: _ -> String.compare tip_c.id tip_k.id < 0

let valid_chain chain =
  (* Heights must descend from the tip to 1. *)
  let rec check expected = function
    | [] -> expected = 0
    | b :: rest -> b.height = expected && check (expected - 1) rest
  in
  check (List.length chain) chain
  &&
  (* A chain's bit is constant from block 1 upward. *)
  match chain_bit chain with
  | None -> true
  | Some bit -> List.for_all (fun b -> b.bit = bit) chain

let protocol ~p ~confirmations =
  let make_env ~n _rng = { n; p; confirmations } in
  let init _env ~rng ~n:_ ~me ~input =
    { me; input; rng; chain = []; out = None; stopped = false }
  in
  let step env state ~round ~inbox =
    ignore round;
    (* Adopt the best valid chain seen. *)
    List.iter
      (fun (_src, Chain c) ->
        if valid_chain c && better_than c state.chain then state.chain <- c)
      inbox;
    (* Decide at the confirmation depth. *)
    if List.length state.chain >= env.confirmations then begin
      state.out <- chain_bit state.chain;
      state.stopped <- true;
      (state, [])
    end
    else begin
      (* Mining lottery. *)
      if Bacrypto.Rng.bernoulli state.rng env.p then begin
        let height = List.length state.chain + 1 in
        let bit =
          match chain_bit state.chain with
          | Some b -> b
          | None -> state.input
        in
        let id =
          Bacrypto.Sha256.digest_concat
            [ "block"; string_of_int height; string_of_int state.me;
              string_of_int (Bacrypto.Rng.int state.rng 1_000_000) ]
        in
        let block = { height; miner = state.me; bit; id } in
        state.chain <- block :: state.chain;
        (state, [ Basim.Engine.multicast (Chain state.chain) ])
      end
      else (state, [])
    end
  in
  { Basim.Engine.proto_name = "nakamoto";
    make_env;
    init;
    step;
    output = (fun s -> s.out);
    halted = (fun s -> s.stopped);
    msg_bits = (fun _ (Chain c) -> 8 + (List.length c * (32 + 32 + 1 + 256))) }
