module Make (D : Sm_mergeable.Data.S) = struct
  include D

  let compact ops = ops
end

let wrap (type s o) (module D : Sm_mergeable.Data.S with type state = s and type op = o) :
    (module Sm_mergeable.Data.S with type state = s and type op = o) =
  (module Make (D))
