let offset_basis = 0xcbf29ce484222325L
let prime = 0x100000001b3L

(* A local ref the compiler keeps unboxed: the loop allocates nothing per
   byte, only the boxed result. *)
let hash s =
  let h = ref offset_basis in
  for i = 0 to String.length s - 1 do
    h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code (String.unsafe_get s i)))) prime
  done;
  !h

let combine a b = Int64.mul (Int64.logxor (Int64.mul a prime) b) prime
let to_hex h = Printf.sprintf "%016Lx" h
