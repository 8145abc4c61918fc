type record = { outcome : bool; prob : float }

type t = {
  coin : node:int -> msg:string -> p:float -> bool;
      (* hidden; drives the Bernoulli coins *)
  table : (int * string, record) Hashtbl.t;
  mutable successes : int;
  mutable sampled_losses : int;
      (* losing [sample] attempts, which are counted but NOT memoized:
         the sparse engine path probes every active node per round, and
         memoizing the losers would grow the table by O(n) per round —
         the exact heap growth the memory-flatness gate forbids *)
}

let of_coin coin =
  { coin; table = Hashtbl.create 1024; successes = 0; sampled_losses = 0 }

let create rng =
  let key = Bacrypto.Prf.cache (Bacrypto.Prf.gen rng) in
  of_coin (fun ~node ~msg ~p -> Bacrypto.Prf.coin key ~node ~msg ~p)

let p_mine = Baobs.Probe.register "fmine.mine"

(* One draw for [mine] and [sample], so the two can never disagree on an
   outcome. [mine] memoizes every attempt; [sample] only winners, which
   is sound because [verify] answers [false] for absent entries and a
   losing attempt never yields a credential anyone could present —
   exactly Figure 1's "unattempted mines verify as 0" read. Losers are
   tallied in [sampled_losses] so [attempts] still counts every coin
   flipped. A losing sample allocates only the [(node, msg)] probe key. *)
let draw t ~keep_losers ~node ~msg ~p =
  let t0 = Baobs.Probe.start () in
  let key = (node, msg) in
  let outcome =
    match Hashtbl.find_opt t.table key with
    | Some r ->
        if r.prob <> p then
          invalid_arg "Fmine.mine: same (node, msg) mined with a different p";
        r.outcome
    | None ->
        let outcome = t.coin ~node ~msg ~p in
        if outcome then t.successes <- t.successes + 1;
        if outcome || keep_losers then
          Hashtbl.replace t.table key { outcome; prob = p }
        else t.sampled_losses <- t.sampled_losses + 1;
        outcome
  in
  Baobs.Probe.stop p_mine t0;
  outcome

let mine t ~node ~msg ~p = draw t ~keep_losers:true ~node ~msg ~p

let sample t ~node ~msg ~p = draw t ~keep_losers:false ~node ~msg ~p

let verify t ~node ~msg =
  match Hashtbl.find_opt t.table (node, msg) with
  | Some r -> r.outcome
  | None -> false

let attempts t = Hashtbl.length t.table + t.sampled_losses

let successes t = t.successes

let successes_for t ~prefix =
  let plen = String.length prefix in
  Hashtbl.fold
    (fun (_, msg) r acc ->
      if
        r.outcome && String.length msg >= plen
        && String.equal (String.sub msg 0 plen) prefix
      then acc + 1
      else acc)
    t.table 0
