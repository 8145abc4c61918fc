type params = { crs_comm : Commitment.crs; crs_nizk : Nizk.crs }

type sk = { witness : Nizk.witness; sk_com : Commitment.t }

type pk = { pk_index : int; com : Commitment.t }

type evaluation = { rho : string; proof : Nizk.proof }

let keygen params rng ~index =
  let prf_key = Prf.gen rng in
  let salt = Commitment.fresh_salt rng in
  let com = Commitment.commit params.crs_comm ~value:prf_key ~salt in
  ({ witness = Nizk.witness ~sk:prf_key ~salt; sk_com = com },
   { pk_index = index; com })

let statement params ~com ~rho ~msg =
  { Nizk.rho;
    com;
    crs_comm = Commitment.crs_to_string params.crs_comm;
    msg }

let p_eval = Baobs.Probe.register "vrf.eval"

let p_verify = Baobs.Probe.register "vrf.verify"

let eval params sk msg =
  let t0 = Baobs.Probe.start () in
  let w = sk.witness in
  let rho = Prf.eval_cached w.pads msg in
  let stmt = statement params ~com:sk.sk_com ~rho ~msg in
  let ev = { rho; proof = Nizk.prove params.crs_nizk params.crs_comm stmt w } in
  Baobs.Probe.stop p_eval t0;
  ev

let verify params pk msg ev =
  let t0 = Baobs.Probe.start () in
  let stmt = statement params ~com:pk.com ~rho:ev.rho ~msg in
  let ok = Nizk.verify params.crs_nizk stmt ev.proof in
  Baobs.Probe.stop p_verify t0;
  ok

let output_fraction ev = Prf.output_fraction ev.rho

let evaluation_bits ev = (String.length ev.rho * 8) + Nizk.proof_bits ev.proof
