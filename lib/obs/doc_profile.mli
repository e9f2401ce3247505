(** The per-document conflict profile: how many epoch merges touched a
    document, the operations and OT transform calls they took, and the
    journal-compaction in/out op counts.

    One record serves both sides of the conflict profiler: a shard server
    keeps a live {!table} of them ([sm-shard stats]' hot-documents table),
    and {!Trace_model} folds {!Event.Doc_merge} events into the same table
    type ([sm-trace attribute]).  The two are built by the same {!add}, so
    a trace taken at Debug rebuilds exactly the live profile. *)

type t =
  { doc : string  (** document wire name *)
  ; mutable merges : int  (** epoch merges that folded edits into it *)
  ; mutable ops : int  (** journal ops folded in *)
  ; mutable transforms : int  (** OT transform calls those folds took *)
  ; mutable compact_in : int  (** ops handed to journal compaction *)
  ; mutable compact_out : int  (** ops surviving compaction *)
  }

type table = (string, t) Hashtbl.t
(** Profiles keyed by document name. *)

val create : unit -> table

val add :
  ?merges:int ->
  table ->
  doc:string ->
  ops:int ->
  transforms:int ->
  compact_in:int ->
  compact_out:int ->
  unit
(** Account [merges] (default 1) merges of [doc] with these counts,
    creating its profile on first sight. *)

val compare_hottest : t -> t -> int
(** Hottest first: most transform calls, then most ops, then name. *)

val hottest : ?limit:int -> table -> t list
(** The table's profiles in {!compare_hottest} order, at most [limit]. *)

val to_json : t list -> Json.t
(** A JSON array of objects with keys [doc], [merges], [ops],
    [transforms], [compact_in], [compact_out]. *)

val pp : Format.formatter -> t list -> unit
(** The hot-documents table (a placeholder line when empty). *)
