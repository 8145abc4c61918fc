type t = { lambda : int; max_epochs : int }

let make ?(lambda = 40) ?(max_epochs = 60) () =
  if lambda <= 0 then invalid_arg "Params.make: lambda must be positive";
  if max_epochs <= 0 then invalid_arg "Params.make: max_epochs must be positive";
  { lambda; max_epochs }

let ack_probability t ~n = min 1.0 (float_of_int t.lambda /. float_of_int n)

let propose_probability ~n = 1.0 /. (2.0 *. float_of_int n)

let third_quorum t = (2 * t.lambda + 2) / 3

let hm_quorum t = (t.lambda + 1) / 2
