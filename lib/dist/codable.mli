(** Wire-ready mergeable types: the {!Sm_mergeable} structures paired with
    codecs, for registration with {!Registry.value}.

    Functors take the element's OT interface plus its codec; [Counter] is
    ready-made since its state is a bare int. *)

module type CODABLE_ELT = sig
  include Sm_ot.Op_sig.ELT

  val codec : t Sm_util.Codec.t
end

module type CODABLE_ORDERED_ELT = sig
  include Sm_ot.Op_sig.ORDERED_ELT

  val codec : t Sm_util.Codec.t
end

module Counter : Registry.CODABLE_DATA with type state = int and type op = Sm_ot.Op_counter.op

module Text :
  Registry.CODABLE_DATA with type state = Sm_ot.Op_text.state and type op = Sm_ot.Op_text.op
(** Text snapshots ship flattened bytes (independent of the rope's chunk
    layout); the {!Registry.CODABLE_DATA.journal_codec} is the packed binary
    form — delta-encoded positions, varint-framed — that journal frames
    carry. *)

module Make_list (Elt : CODABLE_ELT) : sig
  module Op : module type of Sm_ot.Op_list.Make (Elt)

  include Registry.CODABLE_DATA with type state = Elt.t list and type op = Op.op
end

module Make_queue (Elt : CODABLE_ELT) : sig
  module Op : module type of Sm_ot.Op_queue.Make (Elt)

  include Registry.CODABLE_DATA with type state = Elt.t list and type op = Op.op
end

module Make_tree (Label : CODABLE_ELT) : sig
  module Op : module type of Sm_ot.Op_tree.Make (Label)

  include Registry.CODABLE_DATA with type state = Op.node list and type op = Op.op

  val node_codec : Op.node Sm_util.Codec.t
  (** Preorder (label, child-count, children) encoding — exposed for shard
      payloads that ship single subtrees. *)
end

module Make_register (V : CODABLE_ELT) : sig
  module Op : module type of Sm_ot.Op_register.Make (V)

  include Registry.CODABLE_DATA with type state = V.t and type op = Op.op
end

module Make_map (Key : CODABLE_ORDERED_ELT) (Value : CODABLE_ELT) : sig
  module Op : module type of Sm_ot.Op_map.Make (Key) (Value)

  include Registry.CODABLE_DATA with type state = Value.t Op.Key_map.t and type op = Op.op
end

(** Ready-made codable elements. *)
module Int_elt : CODABLE_ORDERED_ELT with type t = int

module String_elt : CODABLE_ORDERED_ELT with type t = string
