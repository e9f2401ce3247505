(** Wire-ready mergeable types: the {!Sm_mergeable} structures paired with
    codecs, for registration with {!Registry.value}.

    Each module is its mergeable type's [Data] (the functors instantiate the
    {!Sm_mergeable} functor on the same element) plus codecs, so a type's
    operations, transforms and [type_name] are declared once, in
    [lib/mergeable].  Functors take the element's OT interface plus its
    codec; [Counter] and [Text] are ready-made. *)

module type CODABLE_ELT = sig
  include Sm_ot.Op_sig.ELT

  val codec : t Sm_util.Codec.t
end

module type CODABLE_ORDERED_ELT = sig
  include Sm_ot.Op_sig.ORDERED_ELT

  val codec : t Sm_util.Codec.t
end

(** A registrable type plus its single-op codec — the building block of
    most [journal_codec]s, and a size yardstick for the packed text form. *)
module type S = sig
  include Registry.CODABLE_DATA

  val op_codec : op Sm_util.Codec.t
end

module Counter : S with type state = int and type op = Sm_ot.Op_counter.op

module Text : S with type state = Sm_ot.Op_text.state and type op = Sm_ot.Op_text.op
(** Text snapshots ship flattened bytes (independent of the rope's chunk
    layout); the {!Registry.CODABLE_DATA.journal_codec} is the packed binary
    form — delta-encoded positions, varint-framed — that journal frames
    carry. *)

module Make_list (Elt : CODABLE_ELT) : sig
  module Op : module type of Sm_ot.Op_list.Make (Elt)

  include S with type state = Elt.t list and type op = Op.op
end

module Make_queue (Elt : CODABLE_ELT) : sig
  module Op : module type of Sm_ot.Op_queue.Make (Elt)

  include S with type state = Elt.t list and type op = Op.op
end

module Make_tree (Label : CODABLE_ELT) : sig
  module Op : module type of Sm_ot.Op_tree.Make (Label)

  include S with type state = Op.node list and type op = Op.op
end

module Make_register (V : CODABLE_ELT) : sig
  module Op : module type of Sm_ot.Op_register.Make (V)

  include S with type state = V.t and type op = Op.op
end

module Make_map (Key : CODABLE_ORDERED_ELT) (Value : CODABLE_ELT) : sig
  module Op : module type of Sm_ot.Op_map.Make (Key) (Value)

  include S with type state = Value.t Op.Key_map.t and type op = Op.op
end

(** Ready-made codable elements. *)
module Int_elt : CODABLE_ORDERED_ELT with type t = int

module String_elt : CODABLE_ORDERED_ELT with type t = string
