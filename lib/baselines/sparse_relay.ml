type env = { n : int; d : int; deadline : int }

type msg = Payload of bool

let msg_kind (Payload _) = "payload"

type state = {
  me : int;
  input : bool;
  mutable learned : bool option;
  mutable forwarded : bool;
  mutable out : bool option;
  mutable stopped : bool;
}

let successors ~n ~d i = List.init d (fun k -> (i + k + 1) mod n)

let protocol ~d =
  let make_env ~n _rng =
    if d <= 0 || d >= n then invalid_arg "Sparse_relay: need 0 < d < n";
    { n; d; deadline = ((n + d - 1) / d) + 2 }
  in
  let init _env ~rng:_ ~n:_ ~me ~input =
    { me;
      input;
      learned = (if me = 0 then Some input else None);
      forwarded = false;
      out = None;
      stopped = false }
  in
  let step env state ~round ~inbox =
    (* Learn the bit from the first copy received. *)
    (if state.learned = None then
       match inbox with
       | (_src, Payload b) :: _ -> state.learned <- Some b
       | [] -> ());
    if round >= env.deadline then begin
      state.out <- Some (Option.value state.learned ~default:false);
      state.stopped <- true;
      (state, [])
    end
    else begin
      match state.learned with
      | Some b when not state.forwarded ->
          state.forwarded <- true;
          ( state,
            [ { Basim.Engine.dst =
                  Basim.Engine.Only (successors ~n:env.n ~d:env.d state.me);
                payload = Payload b } ] )
      | Some _ | None -> (state, [])
    end
  in
  { Basim.Engine.proto_name = "sparse-relay";
    make_env;
    init;
    step;
    output = (fun s -> s.out);
    halted = (fun s -> s.stopped);
    msg_bits = (fun _ _ -> 1) }

