type dst = Everyone | Lower_half | Upper_half | Nodes of int list

type action =
  | Corrupt of int
  | Remove of { victim : int; index : int }
  | Inject of { src : int; kind : string; bit : bool; dst : dst }
  | Halt

type t = {
  name : string;
  model : Corruption.model;
  setup : int list;
  steps : (int * action list) list;
}

let schema = "ba-schedule/v1"

let action_count t =
  List.length t.setup
  + List.fold_left (fun acc (_, acts) -> acc + List.length acts) 0 t.steps

(* {2 JSON codec} *)

let parse_error fmt =
  Format.kasprintf (fun s -> raise (Baobs.Json.Parse_error s)) fmt

let dst_to_json = function
  | Everyone -> Baobs.Json.String "everyone"
  | Lower_half -> Baobs.Json.String "lower-half"
  | Upper_half -> Baobs.Json.String "upper-half"
  | Nodes l -> Baobs.Json.List (List.map (fun i -> Baobs.Json.Int i) l)

let dst_of_json = function
  | Baobs.Json.String "everyone" -> Everyone
  | Baobs.Json.String "lower-half" -> Lower_half
  | Baobs.Json.String "upper-half" -> Upper_half
  | Baobs.Json.String s -> parse_error "schedule: unknown dst %S" s
  | Baobs.Json.List l -> Nodes (List.map Baobs.Json.as_int l)
  | Baobs.Json.Null | Baobs.Json.Bool _ | Baobs.Json.Int _
  | Baobs.Json.Float _ | Baobs.Json.Obj _ ->
      parse_error "schedule: dst must be a tag string or a node list"

let action_to_json = function
  | Corrupt i ->
      Baobs.Json.Obj
        [ ("op", Baobs.Json.String "corrupt"); ("node", Baobs.Json.Int i) ]
  | Remove { victim; index } ->
      Baobs.Json.Obj
        [ ("op", Baobs.Json.String "remove");
          ("victim", Baobs.Json.Int victim);
          ("index", Baobs.Json.Int index) ]
  | Inject { src; kind; bit; dst } ->
      Baobs.Json.Obj
        [ ("op", Baobs.Json.String "inject");
          ("src", Baobs.Json.Int src);
          ("kind", Baobs.Json.String kind);
          ("bit", Baobs.Json.Bool bit);
          ("dst", dst_to_json dst) ]
  | Halt -> Baobs.Json.Obj [ ("op", Baobs.Json.String "halt") ]

let action_of_json j =
  match Baobs.Json.as_string (Baobs.Json.member_exn "op" j) with
  | "corrupt" -> Corrupt (Baobs.Json.as_int (Baobs.Json.member_exn "node" j))
  | "remove" ->
      Remove
        { victim = Baobs.Json.as_int (Baobs.Json.member_exn "victim" j);
          index = Baobs.Json.as_int (Baobs.Json.member_exn "index" j) }
  | "inject" ->
      Inject
        { src = Baobs.Json.as_int (Baobs.Json.member_exn "src" j);
          kind = Baobs.Json.as_string (Baobs.Json.member_exn "kind" j);
          bit = Baobs.Json.as_bool (Baobs.Json.member_exn "bit" j);
          dst = dst_of_json (Baobs.Json.member_exn "dst" j) }
  | "halt" -> Halt
  | op -> parse_error "schedule: unknown op %S" op

let to_json t =
  Baobs.Json.Obj
    [ ("schema", Baobs.Json.String schema);
      ("name", Baobs.Json.String t.name);
      ("model", Baobs.Json.String (Corruption.to_string t.model));
      ("setup", Baobs.Json.List (List.map (fun i -> Baobs.Json.Int i) t.setup));
      ( "rounds",
        Baobs.Json.List
          (List.map
             (fun (round, acts) ->
               Baobs.Json.Obj
                 [ ("round", Baobs.Json.Int round);
                   ("actions", Baobs.Json.List (List.map action_to_json acts)) ])
             t.steps) ) ]

let of_json j =
  let s = Baobs.Json.as_string (Baobs.Json.member_exn "schema" j) in
  if s <> schema then parse_error "schedule: schema %S, want %S" s schema;
  let model_tag = Baobs.Json.as_string (Baobs.Json.member_exn "model" j) in
  let model =
    match Corruption.of_string model_tag with
    | Some m -> m
    | None -> parse_error "schedule: unknown model %S" model_tag
  in
  { name = Baobs.Json.as_string (Baobs.Json.member_exn "name" j);
    model;
    setup =
      List.map Baobs.Json.as_int
        (Baobs.Json.as_list (Baobs.Json.member_exn "setup" j));
    steps =
      List.map
        (fun rj ->
          ( Baobs.Json.as_int (Baobs.Json.member_exn "round" rj),
            List.map action_of_json
              (Baobs.Json.as_list (Baobs.Json.member_exn "actions" rj)) ))
        (Baobs.Json.as_list (Baobs.Json.member_exn "rounds" j)) }

(* {2 Rendering} *)

let pp_dst fmt = function
  | Everyone -> Format.pp_print_string fmt "all"
  | Lower_half -> Format.pp_print_string fmt "lo"
  | Upper_half -> Format.pp_print_string fmt "hi"
  | Nodes l ->
      Format.fprintf fmt "{%s}"
        (String.concat "," (List.map string_of_int l))

let pp_action fmt = function
  | Corrupt i -> Format.fprintf fmt "corrupt %d" i
  | Remove { victim; index } -> Format.fprintf fmt "remove %d#%d" victim index
  | Inject { src; kind; bit; dst } ->
      Format.fprintf fmt "inject %d:%s/%d->%a" src kind
        (if bit then 1 else 0)
        pp_dst dst
  | Halt -> Format.pp_print_string fmt "halt"

let pp fmt t =
  Format.fprintf fmt "%s [%s]" t.name (Corruption.to_string t.model);
  if t.setup <> [] then
    Format.fprintf fmt " setup={%s}"
      (String.concat "," (List.map string_of_int t.setup));
  List.iter
    (fun (round, acts) ->
      Format.fprintf fmt " | r%d:" round;
      List.iteri
        (fun i a ->
          if i > 0 then Format.pp_print_string fmt ";";
          Format.fprintf fmt " %a" pp_action a)
        acts)
    t.steps

(* {2 Interpreter} *)

let resolve_dst ~n = function
  | Everyone -> Engine.All
  | Lower_half -> Engine.Only (List.init (n / 2) (fun i -> i))
  | Upper_half -> Engine.Only (List.init (n - (n / 2)) (fun i -> (n / 2) + i))
  | Nodes l -> Engine.Only l

type ('env, 'msg) compiler = {
  kinds : string list;
  compile :
    'env -> round:int -> src:int -> kind:string -> bit:bool -> 'msg option;
}

let to_adversary ~compiler t =
  (* Local bookkeeping mirroring what the engine will accept: the engine
     applies the action list only after [intervene] returns, so the
     interpreter cannot consult [view.tracker] for corruptions performed
     earlier in the same list — it tracks them itself. *)
  let corrupted : (int, int) Hashtbl.t = Hashtbl.create 16 in
  let remaining = ref 0 in
  let stopped = ref false in
  { Engine.adv_name = "schedule:" ^ t.name;
    model = t.model;
    setup =
      (fun _ ~n ~budget ~rng:_ ->
        Hashtbl.reset corrupted;
        stopped := false;
        remaining := budget;
        let picked = ref [] in
        List.iter
          (fun i ->
            if
              i >= 0 && i < n
              && (not (Hashtbl.mem corrupted i))
              && !remaining > 0
            then begin
              Hashtbl.replace corrupted i (-1);
              decr remaining;
              picked := i :: !picked
            end)
          t.setup;
        List.rev !picked);
    intervene =
      (fun view ->
        if !stopped then []
        else
          match List.assoc_opt view.Engine.round t.steps with
          | None -> []
          | Some acts ->
              let r = view.Engine.round in
              let n = view.Engine.n in
              let removed : (int * int, unit) Hashtbl.t = Hashtbl.create 4 in
              let out = ref [] in
              List.iter
                (fun a ->
                  if not !stopped then
                    match a with
                    | Corrupt i ->
                        if
                          i >= 0 && i < n
                          && (not (Hashtbl.mem corrupted i))
                          && !remaining > 0
                          && Corruption.allows_dynamic_corruption t.model
                        then begin
                          Hashtbl.replace corrupted i r;
                          decr remaining;
                          out := Engine.Corrupt i :: !out
                        end
                    | Remove { victim; index } ->
                        (* Legal only against a victim corrupted in this
                           round (the Theorem-1 discipline Trace_lint
                           enforces), targeting one of its surviving
                           this-round intents. *)
                        let same_round_victim =
                          victim >= 0 && victim < n
                          &&
                          match Hashtbl.find_opt corrupted victim with
                          | Some cr -> cr = r
                          | None -> false
                        in
                        let intent_count =
                          if same_round_victim then
                            List.length view.Engine.intents.(victim)
                          else 0
                        in
                        if
                          Corruption.allows_removal t.model
                          && same_round_victim && index >= 0
                          && index < intent_count
                          && not (Hashtbl.mem removed (victim, index))
                        then begin
                          Hashtbl.replace removed (victim, index) ();
                          out := Engine.Remove { victim; index } :: !out
                        end
                    | Inject { src; kind; bit; dst } ->
                        let in_range i = i >= 0 && i < n in
                        let dst_in_range =
                          match dst with
                          | Nodes l -> List.for_all in_range l
                          | Everyone | Lower_half | Upper_half -> true
                        in
                        if
                          in_range src && dst_in_range
                          && Hashtbl.mem corrupted src
                        then (
                          match
                            compiler.compile view.Engine.env ~round:r ~src
                              ~kind ~bit
                          with
                          | Some payload ->
                              out :=
                                Engine.Inject
                                  { src; dst = resolve_dst ~n dst; payload }
                                :: !out
                          | None -> ())
                    | Halt -> stopped := true)
                acts;
              List.rev !out) }
