(* Wrappers around the records the engine already takes. Every span is
   opened here, in the benchmark, around a call into a layer's public
   function: nothing under lib/ knows it is being measured.

   Untraced runs wrap only [init], to stamp the end of set-up; traced runs
   wrap every field the ledger attributes time or counts to. *)

open Basim
open Bacore

type proto = (Sub_hm.env, Sub_hm.state, Sub_hm.msg) Engine.protocol

type adversary = (Sub_hm.env, Sub_hm.msg) Engine.adversary

type hook = (Sub_hm.env, Sub_hm.state, Sub_hm.msg) Engine.sparse_step

let eligibility sp (e : Bafmine.Eligibility.t) =
  { e with
    Bafmine.Eligibility.mine =
      (fun ~node ~msg ~p ->
        Spans.enter sp Spans.Mine;
        let r = e.mine ~node ~msg ~p in
        Spans.leave sp;
        r);
    sample =
      (fun ~node ~msg ~p ->
        Spans.enter sp Spans.Sample;
        let r = e.sample ~node ~msg ~p in
        Spans.leave sp;
        r);
    verify =
      (fun ~node ~msg ~p c ->
        Spans.enter sp Spans.Verify;
        let r = e.verify ~node ~msg ~p c in
        Spans.leave sp;
        r);
    verify_many =
      (fun ~msg ~p entries ->
        Spans.enter sp Spans.Verify_many;
        let r = e.verify_many ~msg ~p entries in
        Spans.leave sp;
        r) }

(* [setup_end] receives the clock reading taken when node n-1's [init]
   returns: the engine initialises nodes in ascending order right after
   [make_env] and the adversary's set-up, so that instant closes set-up. *)
let protocol ~setup_end sp (p : proto) : proto =
  match sp with
  | None ->
      { p with
        init =
          (fun env ~rng ~n ~me ~input ->
            let st = p.init env ~rng ~n ~me ~input in
            if me = n - 1 then setup_end := Spans.now ();
            st) }
  | Some sp ->
      { p with
        make_env =
          (fun ~n rng ->
            sp.Spans.round <- -1;
            Spans.enter sp Spans.Make_env;
            let env = p.make_env ~n rng in
            Spans.leave sp;
            { env with Sub_hm.elig = eligibility sp env.Sub_hm.elig });
        init =
          (fun env ~rng ~n ~me ~input ->
            Spans.enter sp Spans.Init;
            let st = p.init env ~rng ~n ~me ~input in
            Spans.leave sp;
            if me = n - 1 then setup_end := Spans.now ();
            st);
        step =
          (fun env st ~round ~inbox ->
            sp.Spans.round <- round;
            sp.deliveries <- sp.deliveries + List.length inbox;
            Spans.enter sp Spans.Step;
            let ((_, sends) as r) = p.step env st ~round ~inbox in
            Spans.leave sp;
            sp.wires <- sp.wires + List.length sends;
            r);
        msg_bits =
          (fun env m ->
            sp.msg_bits_calls <- sp.msg_bits_calls + 1;
            p.msg_bits env m) }

let adversary sp (a : adversary) : adversary =
  match sp with
  | None -> a
  | Some sp ->
      { a with
        setup =
          (fun env ~n ~budget ~rng ->
            Spans.enter sp Spans.Adv_setup;
            let r = a.setup env ~n ~budget ~rng in
            Spans.leave sp;
            r);
        intervene =
          (fun view ->
            sp.Spans.round <- view.Engine.round;
            Spans.enter sp Spans.Intervene;
            let actions = a.intervene view in
            Spans.leave sp;
            List.iter
              (function
                | Engine.Inject _ -> sp.wires <- sp.wires + 1
                | Engine.Corrupt _ | Engine.Remove _ -> ())
              actions;
            actions) }

(* Deliveries on the crowd path: every active node whose inbox is the
   shared tail received that tail; the others their private inbox. *)
let sparse sp (hook : hook) : hook =
  match sp with
  | None -> hook
  | Some sp ->
      fun env ~states rv ->
        sp.Spans.round <- rv.Engine.rv_round;
        let shared = List.length rv.rv_shared_inbox in
        for k = 0 to rv.rv_n_active - 1 do
          let i = rv.rv_active.(k) in
          sp.deliveries <-
            sp.deliveries
            + (if rv.rv_is_shared i then shared
               else List.length (rv.rv_inbox i))
        done;
        let emit i sends =
          sp.wires <- sp.wires + List.length sends;
          rv.rv_emit i sends
        in
        Spans.enter sp Spans.Sparse;
        hook env ~states { rv with rv_emit = emit };
        Spans.leave sp
