open Basim
open Bacore
open Babaselines

type ('env, 'state, 'msg) t = {
  name : string;
  protocol : n:int -> Params.t -> ('env, 'state, 'msg) Engine.protocol;
  crowd : (unit -> ('env, 'state, 'msg) Engine.sparse_step) option;
  labeler : 'msg -> string;
  adversaries : (string * (unit -> ('env, 'msg) Engine.adversary)) list;
  refusal : string;
  check : n:int -> Params.t -> string option;
  search : ('env, 'msg) Schedule.compiler option;
}

type entry = Entry : ('env, 'state, 'msg) t -> entry

let adversary_names =
  [ "none"; "eraser"; "silencer"; "split-vote"; "equivocator";
    "cm-equivocator"; "takeover" ]

let max_rounds (params : Params.t) = (4 * params.max_epochs) + 12

let max_epochs = (max_int - 12) / 4

(* Every entry accepts the protocol-agnostic adversaries, then the
   [attacks] on its own messages. *)
let entry ?crowd ?(attacks = [])
    ?(refusal = "this adversary only targets specific protocols")
    ?(check = fun ~n:_ _ -> None) ?search name ~protocol ~labeler =
  Entry
    { name;
      protocol;
      crowd;
      labeler;
      adversaries =
        ("none", fun () -> Engine.passive ~name:"none" ~model:Corruption.Adaptive)
        :: ("eraser", Eraser.make)
        :: ("silencer", Eraser.silencer)
        :: attacks;
      refusal;
      check;
      search }

let sub_third ?search name mode =
  entry name ?search
    ~protocol:(fun ~n:_ params -> Sub_third.protocol ~params ~world:`Hybrid ~mode)
    ~crowd:Sub_third.sparse_step ~labeler:Sub_third.msg_kind
    ~attacks:
      [ ("split-vote", Split_vote.sub_third); ("equivocator", Equivocator.make) ]
    ~refusal:"cm-equivocator/takeover target other protocols"

let sub_hm name world =
  entry name
    ~protocol:(fun ~n:_ params -> Sub_hm.protocol ~params ~world)
    ~crowd:Sub_hm.sparse_step ~labeler:Sub_hm.msg_kind
    ~attacks:[ ("split-vote", Split_vote.sub_hm) ]
    ~refusal:"the equivocators/takeover target other protocols"

let chen_micali name ~erasure =
  entry name
    ~protocol:(fun ~n:_ params -> Chen_micali.protocol ~params ~erasure)
    ~crowd:Chen_micali.sparse_step ~labeler:Chen_micali.msg_kind
    ~attacks:[ ("cm-equivocator", Cm_equivocator.make) ]
    ~refusal:"use cm-equivocator against chen-micali"

(* Sparse-relay's redundancy: each node that knows the payload feeds
   this many ring successors. *)
let relay_degree = 3

(* Quadratic-HM draws one leader per iteration into an array before
   round 0, so its iteration cap bounds set-up memory: 8 MB here. *)
let leader_schedule_cap = 1_000_000

let entries =
  [ entry "warmup-third"
      ~protocol:(fun ~n:_ params -> Warmup_third.protocol ~params)
      ~crowd:Warmup_third.sparse_step ~labeler:Warmup_third.msg_kind;
    sub_third "sub-third" Sub_third.Bit_specific
      ~search:Schedule_targets.sub_third;
    sub_third "sub-third-agnostic" Sub_third.Bit_agnostic;
    entry "quadratic-hm"
      ~protocol:(fun ~n:_ params ->
        Quadratic_hm.protocol ~max_iters:params.Params.max_epochs ())
      ~crowd:Quadratic_hm.sparse_step ~labeler:Quadratic_hm.msg_kind
      ~check:(fun ~n params ->
        if n < 3 || n mod 2 = 0 then
          Some
            (Printf.sprintf
               "quadratic-hm needs an odd -n of at least 3 (n = 2f+1), got %d" n)
        else if params.Params.max_epochs > leader_schedule_cap then
          Some
            (Printf.sprintf
               "quadratic-hm draws its leader schedule before round 0: \
                --epochs must be at most %d, got %d"
               leader_schedule_cap params.Params.max_epochs)
        else None);
    sub_hm "sub-hm" `Hybrid;
    sub_hm "sub-hm-real" `Real;
    entry "dolev-strong"
      ~protocol:(fun ~n _ -> Dolev_strong.protocol ~sender:0 ~f:((n - 1) / 3))
      ~labeler:Dolev_strong.msg_kind;
    entry "static-committee"
      ~protocol:(fun ~n:_ params ->
        Static_committee.protocol ~committee_size:params.Params.lambda)
      ~labeler:Static_committee.msg_kind
      ~attacks:[ ("takeover", fun () -> Takeover.make ~force:true ()) ]
      ~refusal:"use takeover against static-committee"
      (* a committee below 1 is every protocol's --lambda error *)
      ~check:(fun ~n params ->
        if params.Params.lambda > n then
          Some
            (Printf.sprintf
               "static-committee needs a committee (--lambda) of at most n = \
                %d, got %d"
               n params.Params.lambda)
        else None)
      ~search:Schedule_targets.static_committee;
    entry "nakamoto"
      ~protocol:(fun ~n:_ _ -> Nakamoto.protocol ~p:0.01 ~confirmations:6)
      ~labeler:Nakamoto.msg_kind;
    entry "sparse-relay"
      ~protocol:(fun ~n:_ _ -> Sparse_relay.protocol ~d:relay_degree)
      ~labeler:Sparse_relay.msg_kind
      ~check:(fun ~n _ ->
        if n <= relay_degree then
          Some
            (Printf.sprintf
               "sparse-relay needs -n above its relay degree d = %d, got %d"
               relay_degree n)
        else None);
    chen_micali "chen-micali" ~erasure:true;
    chen_micali "chen-micali-no-erasure" ~erasure:false ]
