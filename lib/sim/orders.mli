(** A second evaluation workload: enterprise order processing.

    The paper's introduction motivates Spawn/Merge with "scalable web
    applications, distributed enterprise software"; this module is that
    scenario.  A stream of orders is processed by worker tasks against a
    shared inventory, revenue total and audit log:

    - orders are sharded by product ({e ownership}), so stock decrements
      never conflict — the same idiom as Listing 4's per-host queues;
    - revenue/rejection counters and the audit log merge from all workers,
      the counters commutatively, the log in deterministic creation order;
    - an order is rejected (not merged, audit-logged) when stock is
      insufficient at its processing round.

    For a fixed configuration the outcome — including the {e order} of the
    audit log — is identical on every run; conservation invariants
    (units, money) hold by construction and are asserted in the tests. *)

type config =
  { products : int
  ; initial_stock : int  (** units per product *)
  ; orders : int
  ; workers : int
  ; batch : int  (** orders a worker processes between syncs *)
  ; seed : int64
  }

val default : config
(** 8 products x 50 units, 200 orders, 4 workers, batch 5, seed 1. *)

val validate : config -> unit
(** @raise Invalid_argument on non-positive fields. *)

type order =
  { id : int
  ; product : int
  ; qty : int
  ; price_cents : int
  }

val generate_orders : config -> order list
(** The deterministic order stream for a configuration (exposed so tests can
    model the expected outcome). *)

type report =
  { revenue_cents : int
  ; units_sold : int
  ; orders_filled : int
  ; orders_rejected : int
  ; stock_remaining : int  (** total units still in inventory *)
  ; audit_length : int
  ; audit_digest : string  (** order-sensitive digest of the audit log *)
  ; elapsed_s : float
  }

val pp_report : Format.formatter -> report -> unit

val run : ?executor:Sm_core.Executor.t -> config -> report
