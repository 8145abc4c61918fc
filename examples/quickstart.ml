(* Quickstart: run the paper's flagship protocol — subquadratic Byzantine
   Agreement with vote-specific eligibility (Theorem 2) — among 201 nodes
   holding mixed inputs, and inspect the outcome.

     dune exec examples/quickstart.exe
*)

open Basim
open Bacore

let () =
  let n = 201 in
  (* λ = 40: each conditional multicast wins with probability λ/n, so
     roughly 40 nodes speak per step no matter how large n grows. *)
  let params = Params.make ~lambda:40 ~max_epochs:60 () in
  let protocol = Sub_hm.protocol ~params ~world:`Hybrid in

  (* Mixed inputs: the first 100 nodes say 0, the rest say 1. *)
  let inputs = Scenario.split_inputs ~n in

  (* No adversary for the first run — see adaptive_attack.ml for attacks. *)
  let adversary = Engine.passive ~name:"nobody" ~model:Corruption.Adaptive in

  let result =
    Engine.run protocol ~adversary ~n ~budget:0 ~inputs ~max_rounds:250
      ~seed:2024L
  in

  let verdict = Properties.agreement ~inputs result in
  Printf.printf "n = %d nodes, lambda = %d, mixed inputs\n" n params.Params.lambda;
  Printf.printf "terminated in %d rounds\n" result.Engine.rounds_used;
  Printf.printf "verdict: %s\n" (Format.asprintf "%a" Properties.pp verdict);

  let decided = Array.to_list result.Engine.outputs |> List.filter_map Fun.id in
  let ones = List.length (List.filter Fun.id decided) in
  Printf.printf "all %d nodes agreed on: %d\n" (List.length decided)
    (if ones > 0 then 1 else 0);

  (* The headline: communication. A naive protocol would need every node
     to multicast every round (n x rounds messages); here only committee
     members ever speak. *)
  let m = result.Engine.metrics in
  Printf.printf "honest multicasts: %d (a full-broadcast protocol would use ~%d)\n"
    (Metrics.honest_multicasts m)
    (n * result.Engine.rounds_used);
  Printf.printf "multicast complexity: %d bits\n" (Metrics.honest_multicast_bits m);

  (* Re-run in the real world: same protocol compiled with the VRF of
     Appendix D instead of the Fmine ideal functionality. *)
  let real = Sub_hm.protocol ~params ~world:`Real in
  let result_real =
    Engine.run real ~adversary:(Engine.passive ~name:"nobody" ~model:Corruption.Adaptive)
      ~n:101 ~budget:0 ~inputs:(Scenario.split_inputs ~n:101) ~max_rounds:250
      ~seed:2024L
  in
  Printf.printf
    "\nreal-world (PKI + PRF + NIZK) run at n = 101: %d rounds, verdict %s\n"
    result_real.Engine.rounds_used
    (Format.asprintf "%a" Properties.pp
       (Properties.agreement ~inputs:(Scenario.split_inputs ~n:101) result_real))
