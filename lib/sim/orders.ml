module R = Sm_core.Runtime
module Ws = Sm_mergeable.Workspace

module Minv = Sm_mergeable.Mmap.Make (Sm_dist.Codable.Int_elt) (Sm_dist.Codable.Int_elt)
module Maudit = Sm_mergeable.Mlist.Make (Sm_dist.Codable.String_elt)
module Mc = Sm_mergeable.Mcounter

type config =
  { products : int
  ; initial_stock : int
  ; orders : int
  ; workers : int
  ; batch : int
  ; seed : int64
  }

let default = { products = 8; initial_stock = 50; orders = 200; workers = 4; batch = 5; seed = 1L }

let validate c =
  if c.products <= 0 then invalid_arg "Orders: products must be positive";
  if c.initial_stock < 0 then invalid_arg "Orders: initial_stock must be non-negative";
  if c.orders < 0 then invalid_arg "Orders: orders must be non-negative";
  if c.workers <= 0 then invalid_arg "Orders: workers must be positive";
  if c.batch <= 0 then invalid_arg "Orders: batch must be positive"

type order =
  { id : int
  ; product : int
  ; qty : int
  ; price_cents : int
  }

let generate_orders c =
  let rng = Sm_util.Det_rng.create ~seed:c.seed in
  List.init c.orders (fun id ->
      { id
      ; product = Sm_util.Det_rng.int rng ~bound:c.products
      ; qty = 1 + Sm_util.Det_rng.int rng ~bound:5
      ; price_cents = 100 + Sm_util.Det_rng.int rng ~bound:9900
      })

type report =
  { revenue_cents : int
  ; units_sold : int
  ; orders_filled : int
  ; orders_rejected : int
  ; stock_remaining : int
  ; audit_length : int
  ; audit_digest : string
  ; elapsed_s : float
  }

let pp_report ppf r =
  Format.fprintf ppf
    "revenue=%d.%02d filled=%d rejected=%d sold=%d remaining=%d audit=%d entries (%s) in %.3fs"
    (r.revenue_cents / 100) (r.revenue_cents mod 100) r.orders_filled r.orders_rejected
    r.units_sold r.stock_remaining r.audit_length r.audit_digest r.elapsed_s

(* Worker bodies own disjoint product shards, so their inventory writes never
   conflict; counters and the audit log reconcile by OT at each merge. *)
let worker ~keys:(inventory, audit, revenue, sold, filled, rejected) ~batch ~orders ctx =
  let ws = R.workspace ctx in
  let process o =
    let stock = Option.value ~default:0 (Minv.find ws inventory o.product) in
    if stock >= o.qty then begin
      Minv.put ws inventory o.product (stock - o.qty);
      Mc.add ws revenue (o.qty * o.price_cents);
      Mc.add ws sold o.qty;
      Mc.incr ws filled;
      Maudit.append ws audit (Printf.sprintf "order %d: sold %dx product %d" o.id o.qty o.product)
    end
    else begin
      Mc.incr ws rejected;
      Maudit.append ws audit
        (Printf.sprintf "order %d: REJECTED %dx product %d (stock %d)" o.id o.qty o.product stock)
    end
  in
  List.iteri
    (fun i o ->
      if i > 0 && i mod batch = 0 then ignore (R.sync ctx);
      process o)
    orders

let run ?executor c =
  validate c;
  let start = Unix.gettimeofday () in
  R.run ?executor (fun root ->
      let ws = R.workspace root in
      let inventory = Minv.key ~name:"inventory" in
      let audit = Maudit.key ~name:"audit-log" in
      let revenue = Mc.key ~name:"revenue" in
      let sold = Mc.key ~name:"units-sold" in
      let filled = Mc.key ~name:"orders-filled" in
      let rejected = Mc.key ~name:"orders-rejected" in
      Ws.init ws inventory
        (List.fold_left
           (fun m p -> Minv.Op.Key_map.add p c.initial_stock m)
           Minv.Op.Key_map.empty
           (List.init c.products Fun.id));
      Ws.init ws audit [];
      List.iter (fun k -> Ws.init ws k 0) [ revenue; sold; filled; rejected ];
      let orders = generate_orders c in
      let keys = (inventory, audit, revenue, sold, filled, rejected) in
      for w = 0 to c.workers - 1 do
        (* ownership: worker w handles the products congruent to w *)
        let mine = List.filter (fun o -> o.product mod c.workers = w) orders in
        ignore (R.spawn root (worker ~keys ~batch:c.batch ~orders:mine))
      done;
      while R.has_children root do
        R.merge_all root
      done;
      let audit_entries = Maudit.get ws audit in
      let audit_digest =
        Sm_util.Fnv.to_hex
          (List.fold_left
             (fun acc e -> Sm_util.Fnv.combine acc (Sm_util.Fnv.hash e))
             (Sm_util.Fnv.hash "audit") audit_entries)
      in
      { revenue_cents = Mc.get ws revenue
      ; units_sold = Mc.get ws sold
      ; orders_filled = Mc.get ws filled
      ; orders_rejected = Mc.get ws rejected
      ; stock_remaining =
          Minv.Op.Key_map.fold (fun _ units acc -> acc + units) (Minv.get ws inventory) 0
      ; audit_length = List.length audit_entries
      ; audit_digest
      ; elapsed_s = Unix.gettimeofday () -. start
      })
