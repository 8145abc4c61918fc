(** A synchronous, round-based Nakamoto-style longest-chain protocol —
    the paper's comparator for round complexity (§1: "Nakamoto style
    protocols, either proof-of-work or proof-of-stake-based, {e cannot}
    achieve expected constant round").

    Per round, each node wins the block lottery independently with
    probability [p] (abstracting proof-of-work/stake); a winner extends
    its current chain with a block carrying the chain's {e decided bit} —
    the bit of the genesis-successor block, set from the miner's input
    when it mines height 1 — and multicasts the new chain. Nodes adopt
    the longest chain they see (ties broken by block hash).

    A node outputs once its chain reaches [confirmations] blocks: it
    outputs the bit of block 1. Expected rounds to confirmation is
    [≈ confirmations / (n·p)] — {e linear} in the security parameter
    [confirmations], which is exactly the contrast experiment E3 draws
    against {!Bacore.Sub_hm}'s expected-constant rounds. Chains are
    transmitted whole, so late blocks also cost more bits: the protocol
    is communication-expensive at high confirmation depths. *)

type block = {
  height : int;
  miner : int;
  bit : bool;      (** the chain's decided bit, fixed at height 1 *)
  id : string;     (** block hash (ties) *)
}

type env = {
  n : int;
  p : float;             (** per-node per-round mining probability *)
  confirmations : int;   (** depth at which a node decides *)
}

type msg = Chain of block list
(** Highest block first. *)

val msg_kind : msg -> string
(** Stable kind label for causal tracing: always ["chain"]. *)

type state

val protocol :
  p:float -> confirmations:int -> (env, state, msg) Basim.Engine.protocol
