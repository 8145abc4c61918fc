type record = { outcome : bool; prob : float }

module Nodes = Hashtbl.Make (Int)
module Msgs = Hashtbl.Make (String)

(* One node-keyed table per message, so a probe needs no [(node, msg)]
   key. A crowd round draws every node's coin for one mining string, so
   the table of the last message drawn or verified is kept at hand and
   found again by physical equality; any other string, including an
   equal copy, goes through [by_msg], keyed by contents. Invariant:
   [by_msg] maps [last_msg] to [last_nodes] (the empty message's table
   exists from the start to seed the pair). *)
type t = {
  coin : node:int -> msg:string -> p:float -> bool;
      (* hidden; drives the Bernoulli coins *)
  by_msg : record Nodes.t Msgs.t;
  mutable last_msg : string;
  mutable last_nodes : record Nodes.t;
  mutable attempts : int;
  mutable successes : int;
}

let of_coin coin =
  let by_msg = Msgs.create 64 in
  let nodes = Nodes.create 16 in
  Msgs.add by_msg "" nodes;
  { coin; by_msg; last_msg = ""; last_nodes = nodes; attempts = 0;
    successes = 0 }

let create rng =
  let key = Bacrypto.Prf.cache (Bacrypto.Prf.gen rng) in
  of_coin (fun ~node ~msg ~p -> Bacrypto.Prf.coin key ~node ~msg ~p)

let p_mine = Baobs.Probe.register "fmine.mine"

(* [msg]'s table. @raise Not_found if nothing was ever drawn for it. *)
let nodes_of t msg =
  if msg == t.last_msg then t.last_nodes
  else begin
    let nodes = Msgs.find t.by_msg msg in
    t.last_msg <- msg;
    t.last_nodes <- nodes;
    nodes
  end

let nodes_for_draw t msg =
  match nodes_of t msg with
  | nodes -> nodes
  | exception Not_found ->
      let nodes = Nodes.create 16 in
      Msgs.add t.by_msg msg nodes;
      t.last_msg <- msg;
      t.last_nodes <- nodes;
      nodes

(* One draw for [mine] and [sample], so the two can never disagree on an
   outcome. [mine] memoizes every attempt; [sample] only winners, which
   is sound because [verify] answers [false] for absent entries and a
   losing attempt never yields a credential anyone could present —
   exactly Figure 1's "unattempted mines verify as 0" read. [attempts]
   counts every coin flipped, memoized or not. A losing sample, like a
   memoized hit, allocates nothing: the sparse engine path probes every
   active node per round, and neither memoizing the losers nor keying
   the probe may cost O(n) per round — the heap growth the
   memory-flatness gate forbids. *)
let draw t ~keep_losers ~node ~msg ~p =
  let t0 = Baobs.Probe.start () in
  let nodes = nodes_for_draw t msg in
  let outcome =
    match Nodes.find nodes node with
    | r ->
        if r.prob <> p then
          invalid_arg "Fmine.mine: same (node, msg) mined with a different p";
        r.outcome
    | exception Not_found ->
        let outcome = t.coin ~node ~msg ~p in
        t.attempts <- t.attempts + 1;
        if outcome then t.successes <- t.successes + 1;
        if outcome || keep_losers then
          Nodes.replace nodes node { outcome; prob = p };
        outcome
  in
  Baobs.Probe.stop p_mine t0;
  outcome

let mine t ~node ~msg ~p = draw t ~keep_losers:true ~node ~msg ~p

let sample t ~node ~msg ~p = draw t ~keep_losers:false ~node ~msg ~p

let verify t ~node ~msg =
  match Nodes.find (nodes_of t msg) node with
  | r -> r.outcome
  | exception Not_found -> false

let attempts t = t.attempts

let successes t = t.successes

let successes_for t ~prefix =
  Msgs.fold
    (fun msg nodes acc ->
      if String.starts_with ~prefix msg then
        Nodes.fold (fun _ r acc -> if r.outcome then acc + 1 else acc) nodes acc
      else acc)
    t.by_msg 0
