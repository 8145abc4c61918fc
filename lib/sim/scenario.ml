let random_inputs ~n seed =
  let rng = Bacrypto.Rng.create seed in
  Array.init n (fun _ -> Bacrypto.Rng.bool rng)

let unanimous_inputs ~n b = Array.make n b

let split_inputs ~n = Array.init n (fun i -> i * 2 >= n)

let named =
  [ ("zeros", fun ~n _ -> unanimous_inputs ~n false);
    ("ones", fun ~n _ -> unanimous_inputs ~n true);
    ("split", fun ~n _ -> split_inputs ~n);
    ("random", random_inputs) ]
