(** Mergeable text buffers (collaborative-editing strings).

    The document state is {!Sm_ot.Op_text.state}, a chunked rope; this
    module's API is string-facing. *)

module Data : Data.S with type state = Sm_ot.Op_text.state and type op = Sm_ot.Op_text.op

type handle = (Sm_ot.Op_text.state, Sm_ot.Op_text.op) Workspace.key

val key : name:string -> handle

val init : Workspace.t -> handle -> string -> unit
(** Bind the document with an initial value, built in the currently
    selected representation. *)

val state : Workspace.t -> handle -> Sm_ot.Op_text.state
(** The underlying state — for representation-aware assertions (sharing,
    chunk structure); ordinary readers want {!get}. *)

val get : Workspace.t -> handle -> string
(** The document bytes (flattens a multi-chunk rope). *)

val length : Workspace.t -> handle -> int
(** O(1) in both representations. *)

val insert : Workspace.t -> handle -> int -> string -> unit
(** Inserting the empty string is a no-op and journals nothing. *)

val delete : Workspace.t -> handle -> pos:int -> len:int -> unit
(** Deleting zero bytes is a no-op and journals nothing. *)

val append : Workspace.t -> handle -> string -> unit
