(** The library rules. Every library under [lib/] is compiled with
    [-open Barules] and with these alerts made fatal ([lib/flags.sexp]),
    so using any name below stops the build. A module's own definition
    of a name, such as a local [compare], shadows it. *)

val compare : 'a -> 'a -> int
[@@alert poly_compare "depends on representation; use the type's compare"]

val exit : int -> 'a [@@alert lib_exit "only executables exit"]

val failwith : string -> 'a
[@@alert lib_failwith "raise a documented exception"]

module Obj = Stdlib.Obj [@@alert unsafe_obj "Obj escapes the type system"]

module Stdlib : sig
  include module type of struct
      include Stdlib
    end
    with module Obj := Stdlib.Obj

  val compare : 'a -> 'a -> int
  [@@alert poly_compare "depends on representation; use the type's compare"]

  val exit : int -> 'a [@@alert lib_exit "only executables exit"]

  val failwith : string -> 'a
  [@@alert lib_failwith "raise a documented exception"]

  module Obj = Stdlib.Obj [@@alert unsafe_obj "Obj escapes the type system"]
end
