let compare = compare
let exit = exit
let failwith = failwith

module Obj = Obj
module Stdlib = Stdlib
