(* The paper's "minimal assumptions" claim (§3.2, Theorem 2), live.

   Three committee-BA designs face the same adaptive attack — corrupt a
   committee member the instant its ACK reveals it, and try to make it
   ACK the opposite bit too:

   1. Chen-Micali style: round-specific eligibility tickets, ACK bits
      signed with ephemeral forward-secure keys, keys erased right after
      sending (the MEMORY-ERASURE model).
   2. The same protocol when erasure is not available.
   3. The paper's protocol: BIT-SPECIFIC eligibility tickets, no
      ephemeral keys, no erasure — nothing to steal.

     dune exec examples/assumption_ablation.exe
*)

open Basim
open Bacore

let n = 360

let budget = 110

let params = Params.make ~lambda:20 ~max_epochs:5 ()

let verdict_line label conflicts verdict =
  Printf.printf "%-38s %-22s %s\n" label
    (if conflicts > 0 then
       Printf.sprintf "committees mirrored!" |> fun s ->
       Printf.sprintf "%s (%d)" s conflicts
     else "no mirrored committees")
    (if verdict.Properties.consistent then "outputs agree"
     else "OUTPUTS DISAGREE")

let () =
  print_endline
    "One adaptive attack, three designs (n = 360, f = 110, split inputs)\n";
  let inputs = Scenario.split_inputs ~n in

  (* 1. Chen-Micali with the erasure assumption. *)
  let cm_erasure = Babaselines.Chen_micali.protocol ~params ~erasure:true in
  let env1, r1 =
    Engine.run_env cm_erasure
      ~adversary:(Baattacks.Cm_equivocator.make ())
      ~n ~budget ~inputs ~max_rounds:14 ~seed:5L
  in
  verdict_line "Chen-Micali + memory erasure:"
    env1.Babaselines.Chen_micali.conflicts
    (Properties.agreement ~inputs r1);

  (* 2. Chen-Micali without it. *)
  let cm_plain = Babaselines.Chen_micali.protocol ~params ~erasure:false in
  let env2, r2 =
    Engine.run_env cm_plain
      ~adversary:(Baattacks.Cm_equivocator.make ())
      ~n ~budget ~inputs ~max_rounds:14 ~seed:5L
  in
  verdict_line "Chen-Micali, erasure disabled:"
    env2.Babaselines.Chen_micali.conflicts
    (Properties.agreement ~inputs r2);

  (* 3. The paper's bit-specific eligibility. *)
  let paper =
    Sub_third.protocol ~params ~world:`Hybrid ~mode:Sub_third.Bit_specific
  in
  let env3, r3 =
    Engine.run_env paper
      ~adversary:(Baattacks.Equivocator.make ())
      ~n ~budget ~inputs ~max_rounds:14 ~seed:5L
  in
  verdict_line "bit-specific eligibility (paper):"
    env3.Sub_third.conflicts
    (Properties.agreement ~inputs r3);

  print_newline ();
  print_endline
    "Chen-Micali is only as safe as the promise that a corrupted machine's\n\
     erased keys are really gone; the paper's protocol gets the same\n\
     protection from the lottery itself — a ticket for (ACK, r, b) says\n\
     nothing about (ACK, r, 1-b) — which is why Theorem 2 needs neither\n\
     random oracles nor the memory-erasure model."
