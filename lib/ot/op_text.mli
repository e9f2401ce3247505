(** Mergeable text: range insert/delete over documents, collaborative-editing
    style (the paper cites Ellis & Gibbs and the CSCW line of work — this is
    the classic string OT those systems use).

    Unlike {!Op_list}, deletions cover ranges, so a transform can {e split} a
    delete around a concurrently inserted span — the one-to-many case the
    control algorithm must handle.

    The state is a chunked {!Rope}: O(log n + |op|) per edit, where the
    paper's flat-string model is O(n). *)

type state

type op =
  | Ins of int * string  (** [Ins (pos, s)]: insert [s] before byte position [pos]. *)
  | Del of int * int  (** [Del (pos, len)]: delete [len] bytes starting at [pos]; [len > 0]. *)

include Op_sig.S with type state := state and type op := op

val ins : int -> string -> op

val del : pos:int -> len:int -> op
(** @raise Invalid_argument if [len <= 0]. *)

(** {1 Documents} *)

val of_string : string -> state

val to_string : state -> string
(** Flatten to the document bytes.  O(1) for single-chunk ropes, O(n)
    otherwise. *)

val length : state -> int
(** O(1). *)
