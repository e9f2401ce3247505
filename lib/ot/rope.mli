(** Chunked ropes: balanced trees of string chunks for O(log n) edits on
    large documents.

    The backing store behind {!Op_text}'s documents.  All
    operations preserve the structural invariants that {!check} validates:
    cached lengths and heights are honest, every leaf below the root is
    nonempty and at most [max_chunk] bytes, and sibling subtree heights
    differ by at most 2 (the stdlib [Set] balance bound), so depth is
    O(log chunks). *)

type t

val max_chunk : int
(** Upper bound on a leaf's size (2048 bytes). *)

val target_chunk : int
(** Leaf size used when cutting bulk text (1024 bytes). *)

val empty : t

val of_string : string -> t
(** Balanced by construction; strings up to [max_chunk] become one leaf. *)

val to_string : t -> string

val length : t -> int
(** O(1) — cached at every node. *)

val is_empty : t -> bool

val join : t -> t -> t
(** Concatenation.  O(|height difference|); fuses small edge chunks. *)

val split : t -> int -> t * t
(** [split t i] = (first [i] bytes, rest).  Positions are clamped to
    [[0, length t]].  O(log n). *)

val insert : t -> int -> string -> t
(** [insert t pos s]: [s] spliced in before byte [pos].  O(log n + |s|).
    When the leaf at [pos] can take [s] within [max_chunk], that leaf is
    copied once and only the nodes on its path are rebuilt. *)

val delete : t -> pos:int -> len:int -> t
(** Remove [len] bytes at [pos].  O(log n).  A range inside one leaf that
    leaves it nonempty copies that leaf once and rebuilds only its path. *)

val sub : t -> int -> int -> string
(** [sub t pos len] flattens just the addressed slice. *)

val iter_chunks : (string -> unit) -> t -> unit
(** Visit every chunk left to right — the streaming interface digesting and
    printing use so they never flatten the document. *)

val equal : t -> t -> bool
(** Content equality, chunk-boundary independent, without flattening. *)

val equal_string : t -> string -> bool

val height : t -> int

type stats =
  { chunks : int
  ; depth : int
  ; min_leaf : int
  ; max_leaf : int
  }

val stats : t -> stats

val check : t -> (unit, string) result
(** Validate the structural invariants; [Error] describes the first
    violation found. *)
