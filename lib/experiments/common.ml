(* Aggregation is a monoid fold so trials can run on Bapar domains:
   [rates] carries integer sums (exact, so merging is genuinely
   associative and commutative — float accumulation would not be), and
   the means every table prints are derived at read time. The fold
   merges per-trial singletons in trial-index order, which makes every
   aggregate a pure function of (seed, reps) — independent of [jobs]. *)

type rates = {
  trials : int;
  consistency_fail : int;
  validity_fail : int;
  termination_fail : int;
  total_rounds : int;
  total_multicasts : int;
  total_multicast_bits : int;
  total_unicasts : int;
  total_removals : int;
  total_corruptions : int;
}

let empty_rates =
  { trials = 0;
    consistency_fail = 0;
    validity_fail = 0;
    termination_fail = 0;
    total_rounds = 0;
    total_multicasts = 0;
    total_multicast_bits = 0;
    total_unicasts = 0;
    total_removals = 0;
    total_corruptions = 0 }

let rates_of_trial (r, v) =
  let fail b = if b then 0 else 1 in
  { trials = 1;
    consistency_fail = fail v.Basim.Properties.consistent;
    validity_fail = fail v.Basim.Properties.valid;
    termination_fail = fail v.Basim.Properties.terminated;
    total_rounds = r.Basim.Engine.rounds_used;
    total_multicasts = Basim.Metrics.honest_multicasts r.Basim.Engine.metrics;
    total_multicast_bits =
      Basim.Metrics.honest_multicast_bits r.Basim.Engine.metrics;
    total_unicasts = Basim.Metrics.honest_unicasts r.Basim.Engine.metrics;
    total_removals = Basim.Metrics.removals r.Basim.Engine.metrics;
    total_corruptions = r.Basim.Engine.corruptions }

let merge_rates a b =
  { trials = a.trials + b.trials;
    consistency_fail = a.consistency_fail + b.consistency_fail;
    validity_fail = a.validity_fail + b.validity_fail;
    termination_fail = a.termination_fail + b.termination_fail;
    total_rounds = a.total_rounds + b.total_rounds;
    total_multicasts = a.total_multicasts + b.total_multicasts;
    total_multicast_bits = a.total_multicast_bits + b.total_multicast_bits;
    total_unicasts = a.total_unicasts + b.total_unicasts;
    total_removals = a.total_removals + b.total_removals;
    total_corruptions = a.total_corruptions + b.total_corruptions }

let mean total r =
  if r.trials = 0 then 0.0 else float_of_int total /. float_of_int r.trials

let mean_rounds r = mean r.total_rounds r

let mean_multicasts r = mean r.total_multicasts r

let mean_multicast_bits r = mean r.total_multicast_bits r

let mean_unicasts r = mean r.total_unicasts r

let mean_removals r = mean r.total_removals r

let mean_corruptions r = mean r.total_corruptions r

let seed_of base k =
  Bacrypto.Rng.next_int64
    (Bacrypto.Rng.split_named (Bacrypto.Rng.create base) (string_of_int k))

(* {2 Trial parallelism}

   One process-wide jobs setting, read from the BA_JOBS env knob via
   [Bapar.default_jobs]; tests move it with [set_jobs]. [measure] is
   only ever called from the driver domain — experiments run one after
   another — so a plain ref suffices here; the trials themselves are
   what run on domains. *)

let jobs_setting = ref (Bapar.default_jobs ())

let set_jobs j = jobs_setting := max 1 j

let measure ?jobs ~reps ~seed f =
  Bapar.map_reduce
    ~jobs:(Option.value jobs ~default:!jobs_setting)
    ~merge:merge_rates ~init:empty_rates
    (List.init reps (fun k () -> rates_of_trial (f (seed_of seed k))))

let pct p = Printf.sprintf "%.1f%%" (100.0 *. p)

let rate k n =
  Printf.sprintf "%d/%d (%s)" k n (pct (float_of_int k /. float_of_int n))

let rates_to_json r =
  let open Baobs.Json in
  Obj
    [ ("trials", Int r.trials);
      ("consistency_fail", Int r.consistency_fail);
      ("validity_fail", Int r.validity_fail);
      ("termination_fail", Int r.termination_fail);
      ("mean_rounds", Float (mean_rounds r));
      ("mean_multicasts", Float (mean_multicasts r));
      ("mean_multicast_bits", Float (mean_multicast_bits r));
      ("mean_unicasts", Float (mean_unicasts r));
      ("mean_removals", Float (mean_removals r));
      ("mean_corruptions", Float (mean_corruptions r)) ]
