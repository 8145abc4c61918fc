type credential =
  | Ideal_ticket
  | Vrf_credential of Bacrypto.Vrf.evaluation

type t = {
  mine : node:int -> msg:string -> p:float -> credential option;
  sample : node:int -> msg:string -> p:float -> credential option;
  verify : node:int -> msg:string -> p:float -> credential -> bool;
  verify_many : msg:string -> p:float -> (int * credential) list -> bool list;
  credential_bits : credential -> int;
}

let map_verify verify ~msg ~p entries =
  List.map (fun (node, cred) -> verify ~node ~msg ~p cred) entries

let hybrid fmine =
  let verify ~node ~msg ~p:_ = function
    | Ideal_ticket -> Fmine.verify fmine ~node ~msg
    | Vrf_credential _ -> false
  in
  { mine =
      (fun ~node ~msg ~p ->
        if Fmine.mine fmine ~node ~msg ~p then Some Ideal_ticket else None);
    sample =
      (fun ~node ~msg ~p ->
        if Fmine.sample fmine ~node ~msg ~p then Some Ideal_ticket else None);
    verify;
    verify_many = map_verify verify;
    credential_bits =
      (function Ideal_ticket -> 0 | Vrf_credential ev -> Bacrypto.Vrf.evaluation_bits ev) }

let mining_msg ~tag ~iter ~bit =
  match bit with
  | Some b -> Printf.sprintf "%s:%d:%d" tag iter (if b then 1 else 0)
  | None -> Printf.sprintf "%s:%d" tag iter
