(* --- observability --------------------------------------------------------- *)

type stats =
  { sends : int
  ; delivered : int
  ; dropped_closed : int
  ; dropped_fault : int
  ; duplicated : int
  ; delayed : int
  ; reordered : int
  }

let c_sends = Atomic.make 0
let c_delivered = Atomic.make 0
let c_dropped_closed = Atomic.make 0
let c_dropped_fault = Atomic.make 0
let c_duplicated = Atomic.make 0
let c_delayed = Atomic.make 0
let c_reordered = Atomic.make 0

let stats () =
  { sends = Atomic.get c_sends
  ; delivered = Atomic.get c_delivered
  ; dropped_closed = Atomic.get c_dropped_closed
  ; dropped_fault = Atomic.get c_dropped_fault
  ; duplicated = Atomic.get c_duplicated
  ; delayed = Atomic.get c_delayed
  ; reordered = Atomic.get c_reordered
  }

let reset_stats () =
  List.iter
    (fun c -> Atomic.set c 0)
    [ c_sends; c_delivered; c_dropped_closed; c_dropped_fault; c_duplicated; c_delayed; c_reordered ]

let dropped_send_hook : (string -> unit) option Atomic.t = Atomic.make None
let on_dropped_send f = Atomic.set dropped_send_hook f

(* --- fault plane ------------------------------------------------------------ *)

module Faults = struct
  type t =
    { drop : float
    ; dup : float
    ; delay : float
    ; reorder : float
    ; rng : Sm_util.Det_rng.t
    ; mu : Mutex.t  (* decisions are drawn in send order, one at a time *)
    }

  let make ?(drop = 0.) ?(dup = 0.) ?(delay = 0.) ?(reorder = 0.) ~seed () =
    let ok p = p >= 0. && p <= 1. in
    if not (ok drop && ok dup && ok delay && ok reorder) then
      invalid_arg "Netpipe.Faults.make: probabilities must be in [0, 1]";
    if drop +. dup +. delay +. reorder > 1. then
      invalid_arg "Netpipe.Faults.make: probabilities must sum to at most 1";
    { drop; dup; delay; reorder; rng = Sm_util.Det_rng.create ~seed; mu = Mutex.create () }

  type decision =
    | Pass
    | Drop
    | Dup
    | Hold of int  (* deliver after this many subsequent sends *)

  let decide t =
    Mutex.lock t.mu;
    let r = Sm_util.Det_rng.float t.rng in
    let hold_len = 1 + Sm_util.Det_rng.int t.rng ~bound:3 in
    Mutex.unlock t.mu;
    if r < t.drop then Drop
    else if r < t.drop +. t.dup then Dup
    else if r < t.drop +. t.dup +. t.delay then Hold hold_len
    else if r < t.drop +. t.dup +. t.delay +. t.reorder then Hold 1
    else Pass
end

let faults : Faults.t option Atomic.t = Atomic.make None
let set_faults f = Atomic.set faults f

(* --- pipes ------------------------------------------------------------------ *)

type conn =
  { incoming : string Sm_util.Bqueue.t
  ; outgoing : string Sm_util.Bqueue.t
  ; pending : (string * int ref) Queue.t  (* messages held by the fault plane *)
  ; pending_mu : Mutex.t
  }

type listener = { backlog : conn Sm_util.Bqueue.t }

let listen () = { backlog = Sm_util.Bqueue.create () }

let make_conn incoming outgoing =
  { incoming; outgoing; pending = Queue.create (); pending_mu = Mutex.create () }

let connect l =
  let a = Sm_util.Bqueue.create () and b = Sm_util.Bqueue.create () in
  let client = make_conn a b in
  let server = make_conn b a in
  (try Sm_util.Bqueue.push l.backlog server
   with Invalid_argument _ -> invalid_arg "Netpipe.connect: listener is shut down");
  client

let accept l = Sm_util.Bqueue.pop l.backlog

let deliver c msg =
  try
    Sm_util.Bqueue.push c.outgoing msg;
    Atomic.incr c_delivered
  with Invalid_argument _ ->
    Atomic.incr c_dropped_closed;
    (match Atomic.get dropped_send_hook with None -> () | Some f -> f msg)

(* Tick the hold counters and release everything that reaches zero, oldest
   first.  Called with [pending_mu] held. *)
let release_ready c =
  let n = Queue.length c.pending in
  for _ = 1 to n do
    let msg, left = Queue.pop c.pending in
    decr left;
    if !left <= 0 then deliver c msg else Queue.push (msg, left) c.pending
  done

let send c msg =
  Atomic.incr c_sends;
  match Atomic.get faults with
  | None -> deliver c msg
  | Some f ->
    Mutex.lock c.pending_mu;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock c.pending_mu)
      (fun () ->
        if Sm_util.Bqueue.is_closed c.outgoing then begin
          (* A send into a closed connection is one lost message whatever
             the fault plane would have decided: don't consume a fault
             decision (Drop would book it as dropped_fault with no
             [on_dropped_send] hook, Dup would book the loss twice).
             [deliver] counts the dropped_closed and fires the hook once. *)
          release_ready c;
          deliver c msg
        end
        else
        match Faults.decide f with
        | Faults.Pass ->
          deliver c msg;
          release_ready c
        | Faults.Drop ->
          Atomic.incr c_dropped_fault;
          release_ready c
        | Faults.Dup ->
          Atomic.incr c_duplicated;
          deliver c msg;
          deliver c msg;
          release_ready c
        | Faults.Hold n ->
          (* tick older holds first: a new hold must survive at least the
             next send, or reorder would degenerate to pass-through *)
          release_ready c;
          if Sm_util.Bqueue.is_closed c.outgoing then
            (* nothing will ever flush a hold on a closed connection; count
               the loss now so delivery accounting stays balanced *)
            deliver c msg
          else begin
            if n > 1 then Atomic.incr c_delayed else Atomic.incr c_reordered;
            Queue.push (msg, ref n) c.pending
          end)

let flush_pending c =
  Mutex.lock c.pending_mu;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock c.pending_mu)
    (fun () ->
      while not (Queue.is_empty c.pending) do
        deliver c (fst (Queue.pop c.pending))
      done)

let recv c = Sm_util.Bqueue.pop c.incoming
let try_recv c = Sm_util.Bqueue.try_pop c.incoming
let try_accept l = Sm_util.Bqueue.try_pop l.backlog

let close c =
  flush_pending c;
  Sm_util.Bqueue.close c.incoming;
  Sm_util.Bqueue.close c.outgoing

let shutdown l = Sm_util.Bqueue.close l.backlog
