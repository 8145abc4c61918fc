type 'a t = { iter : int; bit : bool; endorsements : (int * 'a) list }

module Iset = Set.Make (Int)

let rec mem_endorser node = function
  | [] -> false
  | (j, _) :: rest -> j = node || mem_endorser node rest

(* Allocation-free, and quadratic in the list: one quorum's worth. *)
let rec distinct = function
  | [] -> true
  | (node, _) :: rest -> (not (mem_endorser node rest)) && distinct rest

let make ~iter ~bit ~endorsements =
  if iter < 1 then invalid_arg "Cert.make: iterations start at 1";
  if distinct endorsements then { iter; bit; endorsements }
  else begin
    let _, deduped =
      List.fold_left
        (fun (seen, acc) (node, e) ->
          if Iset.mem node seen then (seen, acc)
          else (Iset.add node seen, (node, e) :: acc))
        (Iset.empty, []) endorsements
    in
    { iter; bit; endorsements = List.rev deduped }
  end

let rank = function None -> 0 | Some c -> c.iter

let strictly_higher a ~than = rank a > rank than

let distinct_endorsers c =
  Iset.cardinal (Iset.of_list (List.map fst c.endorsements))

let well_formed c ~quorum ~check =
  let distinct =
    List.fold_left
      (fun seen (node, e) ->
        if Iset.mem node seen then seen
        else if check ~node e then Iset.add node seen
        else seen)
      Iset.empty c.endorsements
  in
  Iset.cardinal distinct >= quorum

let well_formed_batch c ~quorum ~check_all =
  let oks = check_all c.endorsements in
  let distinct =
    List.fold_left2
      (fun seen (node, _) ok ->
        if Iset.mem node seen then seen
        else if ok then Iset.add node seen
        else seen)
      Iset.empty c.endorsements oks
  in
  Iset.cardinal distinct >= quorum

let size_bits c ~endorsement_bits =
  match c with
  | None -> 8
  | Some c ->
      48
      + List.fold_left
          (fun acc (_, e) -> acc + 32 + endorsement_bits e)
          0 c.endorsements
