type record = { outcome : bool; prob : float }

type t = {
  coin_key : Bacrypto.Prf.cached; (* hidden; drives the Bernoulli coins *)
  table : (int * string, record) Hashtbl.t;
  mutable successes : int;
  mutable sampled_losses : int;
      (* losing [sample] attempts, which are counted but NOT memoized:
         the sparse engine path probes every active node per round, and
         memoizing the losers would grow the table by O(n) per round —
         the exact heap growth the memory-flatness gate forbids *)
}

let create rng =
  { coin_key = Bacrypto.Prf.cache (Bacrypto.Prf.gen rng);
    table = Hashtbl.create 1024;
    successes = 0;
    sampled_losses = 0 }

let p_mine = Baobs.Probe.register "fmine.mine"

let mine_unprobed t ~node ~msg ~p =
  let key = (node, msg) in
  match Hashtbl.find_opt t.table key with
  | Some r ->
      if r.prob <> p then
        invalid_arg "Fmine.mine: same (node, msg) mined with a different p";
      r.outcome
  | None ->
      let outcome = Bacrypto.Prf.coin t.coin_key ~node ~msg ~p in
      Hashtbl.replace t.table key { outcome; prob = p };
      if outcome then t.successes <- t.successes + 1;
      outcome

let mine t ~node ~msg ~p =
  let t0 = Baobs.Probe.start () in
  let outcome = mine_unprobed t ~node ~msg ~p in
  Baobs.Probe.stop p_mine t0;
  outcome

(* Identical coin to [mine] (same PRF, so [sample] and [mine] can never
   disagree on an outcome), but only {e winners} enter the table. Sound
   because [verify] answers [false] for absent entries and a losing
   attempt never yields a credential anyone could present — exactly
   Figure 1's "unattempted mines verify as 0" read. Losers are tallied
   in [sampled_losses] so [attempts] still counts every coin flipped.
   A losing sample allocates only the [(node, msg)] probe key. *)
let sample t ~node ~msg ~p =
  let t0 = Baobs.Probe.start () in
  let key = (node, msg) in
  let outcome =
    match Hashtbl.find_opt t.table key with
    | Some r ->
        if r.prob <> p then
          invalid_arg "Fmine.sample: same (node, msg) mined with a different p";
        r.outcome
    | None ->
        let outcome = Bacrypto.Prf.coin t.coin_key ~node ~msg ~p in
        if outcome then begin
          Hashtbl.replace t.table key { outcome; prob = p };
          t.successes <- t.successes + 1
        end
        else t.sampled_losses <- t.sampled_losses + 1;
        outcome
  in
  Baobs.Probe.stop p_mine t0;
  outcome

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
