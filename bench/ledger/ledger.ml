(* Cost-ledger benchmark for seeded sub-HM trials.

     ledger.exe --workload W [--seed S] [--seconds T] [--trace 0|1] [--out FILE]
     ledger.exe record-expected
     ledger.exe compare A.json B.json
     ledger.exe --smoke

   One process runs one workload as a closed loop on one domain: a trial
   starts when the previous one has returned. Trial k of seed S runs on
   engine seed [Common.seed_of S k]. The seed list is timed in interleaved
   passes and each seed keeps its fastest pass, because this class of host
   drifts in speed over tens of seconds; gated per-trial values are then
   standardised to a 15-round trial, and times calibrated against a fixed
   kernel (see README.md). The last line of stdout is the result object;
   --out writes the full run document. *)

open Basim
open Bacore
module J = Baobs.Json
open Stats

let lambda = 40

let max_epochs = 60

let max_rounds = 250

let default_seed = 1

let default_seconds = 20

let expected_path = "bench/ledger/expected.json"

(* ---------- workloads ---------------------------------------------------- *)

type workload = {
  name : string;
  n : int;
  world : [ `Hybrid | `Real ];
  crowd : bool;  (* phase 1 through the [Sub_hm.sparse_step] hook *)
  budget : int;
  adversary : unit -> Instrument.adversary;
  seeds_per_s : float;
      (* seeds per second of --seconds: fixes the seed list from the
         command line alone, calibrated so the timed passes take about
         --seconds on a 2-core x86-64 host *)
}

let passive () = Engine.passive ~name:"none" ~model:Corruption.Adaptive

let workloads =
  [ { name = "dense-n801";
      n = 801;
      world = `Hybrid;
      crowd = false;
      budget = 0;
      adversary = passive;
      seeds_per_s = 2.2 };
    { name = "real-n201";
      n = 201;
      world = `Real;
      crowd = false;
      budget = 0;
      adversary = passive;
      seeds_per_s = 2.0 };
    { name = "sparse-n10k";
      n = 10_000;
      world = `Hybrid;
      crowd = true;
      budget = 0;
      adversary = passive;
      seeds_per_s = 1.5 };
    { name = "splitvote-n2001";
      n = 2001;
      world = `Hybrid;
      crowd = true;
      budget = 650;
      adversary = Baattacks.Split_vote.sub_hm;
      seeds_per_s = 5.0 } ]

(* Every workload path at toy size: the same protocol, world, hook and
   adversary, with n = 41 and the split-vote budget kept at 32%. *)
let smoke_variant w = { w with n = 41; budget = w.budget * 41 / w.n }

let seed_count w ~seconds =
  max 2 (int_of_float (Float.round (float_of_int seconds *. w.seeds_per_s)))

(* ---------- host calibration --------------------------------------------- *)

(* The speed of this class of shared host changes by 10-20% over minutes,
   too slowly for the interleaved passes of one run to cancel. Each trial
   is therefore preceded by a fixed kernel that uses none of the
   repository's code — integer mixing over a 256 KiB array with short-lived
   allocation — and gated times are rescaled to a host on which the kernel
   takes [kernel_ref_s], its typical time on a 2-core x86-64 host. Code
   under test cannot change the kernel's time. *)
let kernel_ref_s = 0.0014

let kernel_words = Array.make 32768 0

let kernel () =
  let a = kernel_words in
  let acc = ref 0 and keep = ref [] in
  for r = 0 to 15 do
    for i = 0 to Array.length a - 1 do
      let x = a.(i) lxor (!acc lsl 7) lxor (!acc lsr 3) + r in
      a.(i) <- x * 0x9E3779B1;
      acc := !acc + (x land 0xffff);
      if i land 63 = 0 then
        keep := (x, i) :: (if i land 4095 = 0 then [] else !keep)
    done
  done;
  ignore (Sys.opaque_identity (!acc + List.length !keep))

(* ---------- one trial ---------------------------------------------------- *)

type gc = {
  alloc : float;
  promoted : float;
  minor : int;
  major : int;
  heap_words : int;
      (* major heap when the trial returns: its high-water mark, since
         every trial starts from a collected heap *)
}

(* What a traced trial's spans and env say, read right after it ends. *)
type layers = {
  calls : int array;  (* by Spans.index *)
  self_ns : int array;
  total_self_ns : int;
  wires : int;
  deliveries : int;
  msg_bits_calls : int;
  cert_entries : int;
  proposal_entries : int;
  attempts : int;
  successes : int;
  cells : (int * Spans.layer * int * int) list;
}

type exec = {
  wall_ns : int;
  setup_ns : int;
  kernel_ns : int;  (* the calibration kernel, run just before *)
  fp : int array;
      (* rounds, multicasts, multicast bits, injections, decided nodes,
         output bit (-1 when nobody decided) *)
  agreement : bool;
  gc : gc;
  layers : layers option;
}

let fingerprint (r : Engine.result) =
  let decided = ref 0 and out = ref (-1) in
  Array.iteri
    (fun i o ->
      match o with
      | Some b when not r.Engine.corrupt.(i) ->
          incr decided;
          if !out < 0 then out := Bool.to_int b
      | Some _ | None -> ())
    r.Engine.outputs;
  let m = r.Engine.metrics in
  [| r.Engine.rounds_used; Metrics.honest_multicasts m;
     Metrics.honest_multicast_bits m; Metrics.injections m; !decided; !out |]

let read_layers sp (env : Sub_hm.env) =
  let per f = Array.of_list (List.map f Spans.all) in
  let attempts, successes =
    match env.Sub_hm.fmine with
    | Some f -> (Bafmine.Fmine.attempts f, Bafmine.Fmine.successes f)
    | None -> (0, 0)
  in
  { calls = per (Spans.calls sp);
    self_ns = per (Spans.self_ns sp);
    total_self_ns = Spans.total_self_ns sp;
    wires = sp.Spans.wires;
    deliveries = sp.Spans.deliveries;
    msg_bits_calls = sp.Spans.msg_bits_calls;
    cert_entries = Hashtbl.length env.Sub_hm.cert_cache;
    proposal_entries = Hashtbl.length env.Sub_hm.proposal_cache;
    attempts;
    successes;
    cells = Spans.cells sp }

let allocated (s : Gc.stat) = s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

let execute w ~seed sp =
  let setup_end = ref 0 in
  let params = Params.make ~lambda ~max_epochs () in
  let proto =
    Instrument.protocol ~setup_end sp (Sub_hm.protocol ~params ~world:w.world)
  in
  let adversary = Instrument.adversary sp (w.adversary ()) in
  let sparse =
    if w.crowd then Some (Instrument.sparse sp (Sub_hm.sparse_step ())) else None
  in
  let inputs = Scenario.split_inputs ~n:w.n in
  Option.iter Spans.reset sp;
  let k0 = Spans.now () in
  kernel ();
  let kernel_ns = Spans.now () - k0 in
  (* Start every trial from an empty major heap, so no trial pays for the
     previous one's garbage. *)
  Gc.full_major ();
  let g0 = Gc.quick_stat () in
  let t0 = Spans.now () in
  let env, result =
    Engine.run_env ?sparse proto ~adversary ~n:w.n ~budget:w.budget ~inputs
      ~max_rounds ~seed
  in
  let t1 = Spans.now () in
  let g1 = Gc.quick_stat () in
  let promoted = g1.Gc.promoted_words -. g0.Gc.promoted_words in
  { wall_ns = t1 - t0;
    setup_ns = !setup_end - t0;
    kernel_ns;
    fp = fingerprint result;
    agreement = Properties.ok (Properties.agreement ~inputs result);
    gc =
      { alloc = allocated g1 -. allocated g0;
        promoted;
        minor = g1.Gc.minor_collections - g0.Gc.minor_collections;
        major = g1.Gc.major_collections - g0.Gc.major_collections;
        heap_words = g1.Gc.heap_words };
    layers = Option.map (fun sp -> read_layers sp env) sp }

(* ---------- a run ---------------------------------------------------------- *)

type metric = { m_name : string; unit : string; value : float; spread : float }

type seed_run = {
  k : int;
  seed : int64;
  execs : exec list;  (* in execution order *)
}

type run = {
  workload : workload;
  base_seed : int;
  seconds : int;
  traced : bool;
  passes : int;
  seeds : seed_run list;
  metrics : metric list;  (* the ones BENCHMARK.json names *)
  observed : metric list;
  attempted : int;
  failed : int;
  problems : string list;  (* why the run is not correct *)
  pinned : int;  (* trials checked against expected.json *)
  count_diffs : (string * int * int) list;  (* name, pinned, measured *)
}

let s_of_ns ns = float_of_int ns /. 1e9

let untraced_execs sr = List.filter (fun e -> Option.is_none e.layers) sr.execs

let traced_execs sr = List.filter (fun e -> Option.is_some e.layers) sr.execs

let layers_of e = match e.layers with Some l -> l | None -> assert false

let best f seeds = List.map (fun sr -> min_list (List.map f (untraced_execs sr))) seeds

(* Per-trial quantities move with the number of rounds a trial ran (7, 11,
   15, ... in one-iteration steps), so a plain median shifts with whichever
   round counts a seed list happens to draw. Each value is therefore moved
   to a trial of [ref_rounds] rounds along the run's Theil-Sen slope
   against rounds, and the median of the moved values is reported. *)
let ref_rounds = 15.0

let at_ref_rounds rounds ys =
  let b = theil_sen_slope rounds ys in
  median (List.map2 (fun r y -> y -. (b *. (r -. ref_rounds))) rounds ys)

let metric m_name unit value = { m_name; unit; value; spread = 0.0 }

(* A timed metric's spread is the relative range of its value recomputed
   with each pass left out in turn: how much the reported best-of-passes
   figure leans on any single pass. *)
let end_to_end_metrics ~passes seeds =
  let first = List.map (fun sr -> List.hd (untraced_execs sr)) seeds in
  let rounds = List.map (fun e -> float_of_int e.fp.(0)) first in
  let best_of keep f =
    List.map
      (fun sr ->
        min_list (List.map f (List.filteri (fun p _ -> keep p) (untraced_execs sr))))
      seeds
  in
  (* [stat] over the seeds' best [f], rescaled by the host speed the
     calibration kernel shows over the same passes *)
  let calibrated stat f keep =
    stat (best_of keep f) *. kernel_ref_s
    /. median (best_of keep (fun e -> s_of_ns e.kernel_ns))
  in
  let timed m_name stat f =
    { m_name; unit = "s";
      value = calibrated stat f (fun _ -> true);
      spread =
        (if passes < 2 then 0.0
         else
           rel_range
             (List.init passes (fun skip -> calibrated stat f (fun p -> p <> skip))))
    }
  in
  let mb e = float_of_int (e.gc.heap_words * (Sys.word_size / 8)) /. 1048576.0 in
  [ timed "trial_s_p50" (at_ref_rounds rounds) (fun e -> s_of_ns e.wall_ns);
    timed "setup_s" median (fun e -> s_of_ns e.setup_ns);
    metric "peak_heap_mb" "MB" (at_ref_rounds rounds (List.map mb first));
    metric "alloc_words_per_round" "words"
      (at_ref_rounds rounds (List.map (fun e -> e.gc.alloc) first) /. ref_rounds) ]

(* Read-only companions of the end-to-end metrics: uncalibrated or
   unstandardised, and too host- or seed-dependent to gate on (see
   README.md). *)
let observed_metrics seeds =
  let first = List.map (fun sr -> List.hd (untraced_execs sr)) seeds in
  let walls = best (fun e -> s_of_ns e.wall_ns) seeds in
  let k = List.length walls in
  let tail =
    (* the highest quantile with at least ten seeds beyond it *)
    if k < 11 then []
    else
      [ metric "trial_s_tail" "s" (sorted walls).(k - 11);
        metric "tail_quantile" "ratio" (float_of_int (k - 10) /. float_of_int k) ]
  in
  let rounds = List.map (fun e -> float_of_int e.fp.(0)) first in
  [ metric "trial_s_p50_wall" "s" (at_ref_rounds rounds walls);
    metric "kernel_s" "s" (median (best (fun e -> s_of_ns e.kernel_ns) seeds));
    metric "trial_s_median" "s" (median walls) ]
  @ tail
  @ [ metric "trials_per_s" "1/s" (1.0 /. mean walls);
      metric "rounds_per_trial" "rounds"
        (mean (List.map (fun e -> float_of_int e.fp.(0)) first));
      metric "multicasts_per_trial" "multicasts"
        (mean (List.map (fun e -> float_of_int e.fp.(1)) first)) ]

(* Exact totals over the seed list, from each seed's first traced trial.
   They follow from the seeds alone, so expected.json pins them. *)
let count_totals seeds =
  let firsts = List.map (fun sr -> layers_of (List.hd (traced_execs sr))) seeds in
  let sum f = List.fold_left (fun acc l -> acc + f l) 0 firsts in
  let calls layer l = l.calls.(Spans.index layer) in
  [ ("engine.rounds",
     List.fold_left (fun acc sr -> acc + (List.hd sr.execs).fp.(0)) 0 seeds);
    ("engine.wires", sum (fun l -> l.wires));
    ("engine.deliveries", sum (fun l -> l.deliveries));
    ("engine.msg_bits.calls", sum (fun l -> l.msg_bits_calls));
    ("sub_hm.step.calls", sum (calls Spans.Step));
    ("sub_hm.sparse.calls", sum (calls Spans.Sparse));
    ("sub_hm.cert_cache.entries", sum (fun l -> l.cert_entries));
    ("sub_hm.proposal_cache.entries", sum (fun l -> l.proposal_entries));
    ("eligibility.mine.calls", sum (calls Spans.Mine));
    ("eligibility.sample.calls", sum (calls Spans.Sample));
    ("eligibility.verify.calls", sum (calls Spans.Verify));
    ("eligibility.verify_many.calls", sum (calls Spans.Verify_many));
    ("fmine.attempts", sum (fun l -> l.attempts));
    ("fmine.successes", sum (fun l -> l.successes));
    ("adversary.intervene.calls", sum (calls Spans.Intervene)) ]

let per_layer_metrics seeds =
  let k = float_of_int (List.length seeds) in
  let totals = count_totals seeds in
  let count name =
    { m_name = name; unit = "count";
      value = float_of_int (List.assoc name totals) /. k; spread = 0.0 }
  in
  (* Self times come from each seed's faster traced trial. *)
  let fastest =
    List.map
      (fun sr ->
        List.fold_left
          (fun a e -> if e.wall_ns < a.wall_ns then e else a)
          (List.hd (traced_execs sr)) (traced_execs sr))
      seeds
  in
  let time name f =
    { m_name = name; unit = "s";
      value = List.fold_left (fun acc e -> acc +. f e) 0.0 fastest /. k;
      spread = 0.0 }
  in
  let self layers e =
    let l = layers_of e in
    s_of_ns
      (List.fold_left (fun acc ly -> acc + l.self_ns.(Spans.index ly)) 0 layers)
  in
  let first_untraced = List.map (fun sr -> List.hd (untraced_execs sr)) seeds in
  let gc name unit f =
    { m_name = name; unit;
      value = List.fold_left (fun acc e -> acc +. f e.gc) 0.0 first_untraced /. k;
      spread = 0.0 }
  in
  let attempts = List.assoc "fmine.attempts" totals in
  let successes = List.assoc "fmine.successes" totals in
  let p50 execs =
    median
      (List.map
         (fun sr -> min_list (List.map (fun e -> s_of_ns e.wall_ns) (execs sr)))
         seeds)
  in
  let overhead = (p50 traced_execs /. p50 untraced_execs) -. 1.0 in
  [ time "engine.self_s" (fun e ->
        s_of_ns (e.wall_ns - (layers_of e).total_self_ns));
    count "engine.rounds";
    count "engine.wires";
    count "engine.deliveries";
    count "engine.msg_bits.calls";
    count "sub_hm.step.calls";
    count "sub_hm.sparse.calls";
    time "sub_hm.step.self_s" (self [ Spans.Step; Spans.Sparse ]);
    count "sub_hm.cert_cache.entries";
    count "sub_hm.proposal_cache.entries";
    count "eligibility.mine.calls";
    count "eligibility.sample.calls";
    time "eligibility.mine.self_s" (self [ Spans.Mine; Spans.Sample ]);
    count "eligibility.verify.calls";
    time "eligibility.verify.self_s" (self [ Spans.Verify ]);
    count "eligibility.verify_many.calls";
    time "eligibility.verify_many.self_s" (self [ Spans.Verify_many ]);
    count "fmine.attempts";
    count "fmine.successes";
    { m_name = "fmine.win_ratio"; unit = "ratio";
      value =
        (if attempts = 0 then 0.0
         else float_of_int successes /. float_of_int attempts);
      spread = 0.0 };
    count "adversary.intervene.calls";
    time "adversary.intervene.self_s" (self [ Spans.Intervene ]);
    time "adversary.setup_s" (self [ Spans.Adv_setup ]);
    time "setup.make_env_s" (self [ Spans.Make_env ]);
    time "setup.init_s" (self [ Spans.Init ]);
    gc "gc.alloc_words" "words" (fun g -> g.alloc);
    gc "gc.promoted_words" "words" (fun g -> g.promoted);
    gc "gc.minor_collections" "count" (fun g -> float_of_int g.minor);
    gc "gc.major_collections" "count" (fun g -> float_of_int g.major);
    { m_name = "trace.overhead_frac"; unit = "ratio"; value = overhead;
      spread = 0.0 } ]

(* ---------- pinned fingerprints ------------------------------------------- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let read_json path = J.of_string (String.trim (read_file path))

let ints j = List.map J.as_int (J.as_list j)

type pins = { trials : int array list; counts : (string * int) list; count_seeds : int }

(* The pins of workload [w]; a missing file or entry is an error, since a
   default-seed run must not silently go unchecked. *)
let load_pins w =
  if not (Sys.file_exists expected_path) then
    failwith (expected_path ^ " is missing; run ledger.exe record-expected");
  let doc = read_json expected_path in
  match J.member w.name (J.member_exn "workloads" doc) with
  | None ->
      failwith
        (Printf.sprintf "%s has no entry for %s; run ledger.exe record-expected"
           expected_path w.name)
  | Some j ->
        { trials = List.map (fun t -> Array.of_list (ints t)) (J.as_list (J.member_exn "trials" j));
          counts =
            (match J.member_exn "counts" j with
            | J.Obj kv -> List.map (fun (k, v) -> (k, J.as_int v)) kv
            | _ -> raise (J.Parse_error "counts: expected an object"));
          count_seeds = J.as_int (J.member_exn "count_seeds" j) }

(* ---------- measuring ------------------------------------------------------ *)

(* Untraced runs time [passes] passes over the seed list. Traced runs make
   two passes in which each seed runs traced and untraced back to back,
   in alternating order, so the two are compared under the same drift. *)
let measure ?passes ?seeds ~pins w ~base_seed ~seconds ~traced =
  Engine.set_intra_jobs 1;
  let passes =
    match passes with Some p -> p | None -> if traced then 2 else 3
  in
  let k_count = match seeds with Some k -> k | None -> seed_count w ~seconds in
  let seeds =
    List.init k_count (fun k ->
        (k, Baexperiments.Common.seed_of (Int64.of_int base_seed) k))
  in
  let sp = if traced then Some (Spans.create ~max_rounds) else None in
  let runs = Array.make k_count [] in
  for p = 0 to passes - 1 do
    List.iter
      (fun (k, seed) ->
        let order =
          if not traced then [ None ]
          else if p mod 2 = 0 then [ sp; None ]
          else [ None; sp ]
        in
        List.iter (fun s -> runs.(k) <- execute w ~seed s :: runs.(k)) order)
      seeds
  done;
  let seeds =
    List.map (fun (k, seed) -> { k; seed; execs = List.rev runs.(k) }) seeds
  in
  let pinned_fp sr =
    match pins with
    | Some p when sr.k < List.length p.trials -> Some (List.nth p.trials sr.k)
    | Some _ | None -> None
  in
  let attempted = ref 0 and failed = ref 0 and problems = ref [] in
  let fp_string fp = String.concat "," (Array.to_list (Array.map string_of_int fp)) in
  List.iter
    (fun sr ->
      let reference =
        match pinned_fp sr with Some fp -> fp | None -> (List.hd sr.execs).fp
      in
      List.iter
        (fun e ->
          incr attempted;
          if not e.agreement then begin
            incr failed;
            problems := Printf.sprintf "trial %d: agreement violated" sr.k :: !problems
          end
          else if e.fp <> reference then begin
            incr failed;
            problems :=
              Printf.sprintf "trial %d: fingerprint %s, expected %s" sr.k
                (fp_string e.fp) (fp_string reference)
              :: !problems
          end)
        sr.execs)
    seeds;
  let count_diffs =
    if not traced then []
    else begin
      List.iter
        (fun sr ->
          match traced_execs sr with
          | [] -> ()
          | first :: rest ->
              let l = layers_of first in
              if l.msg_bits_calls <> l.wires then
                problems :=
                  Printf.sprintf "trial %d: %d msg_bits calls for %d wires" sr.k
                    l.msg_bits_calls l.wires
                  :: !problems;
              List.iter
                (fun e ->
                  if (layers_of e).calls <> l.calls then
                    problems :=
                      Printf.sprintf "trial %d: call counts differ between passes"
                        sr.k
                      :: !problems)
                rest)
        seeds;
      match pins with
      | Some p when p.count_seeds = k_count ->
          List.filter_map
            (fun (name, v) ->
              match List.assoc_opt name p.counts with
              | Some e when e = v -> None
              | Some e -> Some (name, e, v)
              | None -> Some (name, -1, v))
            (count_totals seeds)
      | Some _ | None -> []
    end
  in
  { workload = w;
    base_seed;
    seconds;
    traced;
    passes;
    seeds;
    metrics =
      (if traced then per_layer_metrics seeds
       else end_to_end_metrics ~passes seeds);
    observed = (if traced then [] else observed_metrics seeds);
    attempted = !attempted;
    failed = !failed;
    problems = List.rev !problems;
    pinned =
      (match pins with
      | Some p -> min k_count (List.length p.trials)
      | None -> 0);
    count_diffs }

let correct r = r.failed = 0 && r.problems = []

(* ---------- output ---------------------------------------------------------- *)

let metrics_json ?(spread = false) ms =
  J.Obj
    (List.map
       (fun m ->
         ( m.m_name,
           J.Obj
             ([ ("value", J.Float m.value); ("unit", J.String m.unit) ]
             @ if spread then [ ("spread", J.Float m.spread) ] else []) ))
       ms)

let result_line r =
  J.Obj
    [ ("correct", J.Bool (correct r));
      ("attempted", J.Int r.attempted);
      ("failed", J.Int r.failed);
      ("metrics", metrics_json r.metrics) ]

let document r =
  let seconds f execs = J.List (List.map (fun e -> J.Float (s_of_ns (f e))) execs) in
  let trial sr =
    let e = List.hd sr.execs in
    J.Obj
      [ ("k", J.Int sr.k);
        ("seed", J.String (Int64.to_string sr.seed));
        ("fingerprint", J.List (Array.to_list (Array.map (fun x -> J.Int x) e.fp)));
        ("alloc_words", J.Float e.gc.alloc);
        ("heap_words", J.Int e.gc.heap_words);
        ("wall_s", seconds (fun e -> e.wall_ns) (untraced_execs sr));
        ("traced_wall_s", seconds (fun e -> e.wall_ns) (traced_execs sr));
        ("setup_s", seconds (fun e -> e.setup_ns) (untraced_execs sr));
        ("kernel_s", seconds (fun e -> e.kernel_ns) (untraced_execs sr)) ]
  in
  let spans =
    if not r.traced then []
    else
      [ ( "counts",
          J.Obj (List.map (fun (k, v) -> (k, J.Int v)) (count_totals r.seeds)) );
        ( "spans",
          J.List
            (List.concat_map
               (fun sr ->
                 List.map
                   (fun (round, layer, calls, ns) ->
                     J.List
                       [ J.Int sr.k; J.Int round; J.String (Spans.name layer);
                         J.Int calls; J.Int ns ])
                   (layers_of (List.hd (traced_execs sr))).cells)
               r.seeds) ) ]
  in
  J.Obj
    ([ ("schema", J.String "ba-ledger/v1");
       ("workload", J.String r.workload.name);
       ("n", J.Int r.workload.n);
       ("seed", J.Int r.base_seed);
       ("seconds", J.Int r.seconds);
       ("trace", J.Bool r.traced);
       ("seeds", J.Int (List.length r.seeds));
       ("passes", J.Int r.passes);
       ("pinned_trials", J.Int r.pinned);
       ("correct", J.Bool (correct r));
       ("attempted", J.Int r.attempted);
       ("failed", J.Int r.failed);
       ("problems", J.List (List.map (fun s -> J.String s) r.problems));
       ("metrics", metrics_json ~spread:true r.metrics);
       ("observed", metrics_json r.observed);
       ("trials", J.List (List.map trial r.seeds)) ]
    @ spans)

let print_summary r =
  Printf.printf "%s  seed %d  %d seeds x %d passes  %s\n" r.workload.name
    r.base_seed (List.length r.seeds) r.passes
    (if r.traced then "traced" else "untraced");
  let k = List.length r.seeds in
  if r.pinned > 0 then
    Printf.printf "  fingerprints: %d of %d trials pinned%s\n" r.pinned k
      (if r.pinned < k then " (the rest check properties only)" else "")
  else Printf.printf "  fingerprints: unpinned seed, properties only\n";
  List.iter
    (fun (name, e, v) ->
      Printf.printf "  call count changed: %s pinned %d, measured %d\n" name e v)
    r.count_diffs;
  List.iteri
    (fun i p -> if i < 10 then Printf.printf "  problem: %s\n" p)
    r.problems;
  if List.length r.problems > 10 then
    Printf.printf "  ... and %d more problems\n" (List.length r.problems - 10);
  List.iter
    (fun m ->
      Printf.printf "  %-32s %14.6g %-10s spread %.3f\n" m.m_name m.value m.unit
        m.spread)
    r.metrics;
  List.iter
    (fun m ->
      Printf.printf "  (observed) %-21s %14.6g %s\n" m.m_name m.value m.unit)
    r.observed;
  Printf.printf "  attempted %d, failed %d\n" r.attempted r.failed

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc contents)

(* ---------- record-expected ------------------------------------------------- *)

let record_expected () =
  let entry w =
    let r =
      measure ~passes:1 ~pins:None w ~base_seed:default_seed
        ~seconds:default_seconds ~traced:true
    in
    Printf.printf "%s: %d seeds pinned\n%!" w.name (List.length r.seeds);
    ( w.name,
      J.Obj
        [ ( "trials",
            J.List
              (List.map
                 (fun sr ->
                   J.List
                     (Array.to_list
                        (Array.map (fun x -> J.Int x) (List.hd sr.execs).fp)))
                 r.seeds) );
          ("count_seeds", J.Int (List.length r.seeds));
          ( "counts",
            J.Obj (List.map (fun (k, v) -> (k, J.Int v)) (count_totals r.seeds)) ) ] )
  in
  let doc =
    J.Obj
      [ ("schema", J.String "ba-ledger-expected/v1");
        ("seed", J.Int default_seed);
        ("seconds", J.Int default_seconds);
        ("workloads", J.Obj (List.map entry workloads)) ]
  in
  write_file expected_path (J.to_string doc ^ "\n");
  Printf.printf "wrote %s\n" expected_path

(* ---------- smoke ------------------------------------------------------------ *)

let benchmark_path = "BENCHMARK.json"

(* Every workload path at n = 41, untraced and traced, then compare on
   its own output: identical sets must be within bound, and a doubled
   p50 must be a regression. *)
let smoke () =
  let bench = read_json benchmark_path in
  let check what cond = if not cond then failwith ("smoke: " ^ what) in
  let names key =
    List.map
      (fun m -> J.as_string (J.member_exn "name" m))
      (Compare.benchmark_metrics key bench)
  in
  let docs =
    List.concat_map
      (fun w ->
        let w = smoke_variant w in
        List.map
          (fun traced ->
            let r =
              measure ~passes:1 ~seeds:2 ~pins:None w ~base_seed:default_seed
                ~seconds:1 ~traced
            in
            check (w.name ^ " correct") (correct r);
            let key = if traced then "per_layer" else "end_to_end" in
            check
              (w.name ^ " prints every " ^ key ^ " metric of " ^ benchmark_path)
              (List.map (fun m -> m.m_name) r.metrics = names key);
            document r)
          [ false; true ])
      workloads
  in
  let bounds = Compare.bounds bench in
  let same = Compare.rows ~bounds docs docs in
  check "compare of a set with itself"
    (List.for_all (fun r -> r.Compare.verdict = Compare.Within) same
     && Compare.exit_code same = 0);
  let double_p50 = function
    | "trial_s_p50", m ->
        ( "trial_s_p50",
          J.Obj
            [ ("value", J.Float (2.0 *. J.as_float (J.member_exn "value" m)));
              ("spread", J.Float 0.0) ] )
    | other -> other
  in
  let slower =
    List.map
      (function
        | J.Obj kv ->
            J.Obj
              (List.map
                 (function
                   | "metrics", J.Obj ms -> ("metrics", J.Obj (List.map double_p50 ms))
                   | other -> other)
                 kv)
        | d -> d)
      docs
  in
  let worse = Compare.rows ~bounds docs slower in
  check "a doubled p50 is a regression"
    (List.for_all
       (fun r ->
         (r.Compare.metric = "trial_s_p50") = (r.Compare.verdict = Compare.Regressed))
       worse
     && Compare.exit_code worse = 1);
  Printf.printf "smoke: %d runs over %d workloads ok\n" (List.length docs)
    (List.length workloads)

(* ---------- command line ----------------------------------------------------- *)

let usage () =
  prerr_string
    "usage: ledger.exe --workload W [--seed S] [--seconds T] [--trace 0|1] \
     [--out FILE]\n\
    \       ledger.exe record-expected\n\
    \       ledger.exe compare A.json B.json\n\
    \       ledger.exe --smoke\n\
     workloads: ";
  prerr_endline (String.concat ", " (List.map (fun w -> w.name) workloads));
  exit 2

let rec flags acc = function
  | [] -> List.rev acc
  | flag :: value :: rest
    when List.mem flag [ "--workload"; "--seed"; "--seconds"; "--trace"; "--out" ] ->
      flags ((flag, value) :: acc) rest
  | _ -> usage ()

let int_flag fl name default =
  match List.assoc_opt name fl with
  | None -> default
  | Some v -> ( match int_of_string_opt v with Some i -> i | None -> usage ())

let run_one args =
  let fl = flags [] args in
  let w =
    match List.assoc_opt "--workload" fl with
    | None -> usage ()
    | Some name -> (
        match List.find_opt (fun w -> w.name = name) workloads with
        | Some w -> w
        | None -> usage ())
  in
  let base_seed = int_flag fl "--seed" default_seed in
  let seconds = int_flag fl "--seconds" default_seconds in
  let traced =
    match int_flag fl "--trace" 0 with 0 -> false | 1 -> true | _ -> usage ()
  in
  if seconds < 1 then usage ();
  let pins = if base_seed = default_seed then Some (load_pins w) else None in
  let r = measure ~pins w ~base_seed ~seconds ~traced in
  print_summary r;
  Option.iter
    (fun path -> write_file path (J.to_string (document r) ^ "\n"))
    (List.assoc_opt "--out" fl);
  print_endline (J.to_string (result_line r))

let main = function
  | [ "record-expected" ] -> record_expected ()
  | [ "--smoke" ] -> smoke ()
  | [ "compare"; a; b ] ->
      let bounds = Compare.bounds (read_json benchmark_path) in
      let a = Compare.runs_of_json (read_json a)
      and b = Compare.runs_of_json (read_json b) in
      let rows = Compare.rows ~bounds a b in
      print_string (Compare.render rows (Compare.count_changes a b));
      exit (Compare.exit_code rows)
  | args -> run_one args

let () =
  try main (List.tl (Array.to_list Sys.argv)) with
  | Failure msg | Sys_error msg | J.Parse_error msg ->
      prerr_endline ("ledger: " ^ msg);
      exit 2
