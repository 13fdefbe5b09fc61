(* Queue payload bytes across every weighted queue in the process, the
   [mem_queue_bytes] leg of the overload controller's memory accounting
   (see Overload). Registry lookup is find-or-create by name, so other
   libraries reading the same gauge observe the same atomic. *)
let mem_queue_bytes =
  Crd_obs.gauge ~help:"Bytes of payload currently buffered in weighted Bqueues"
    "mem_queue_bytes"

(* Distribution of slice sizes handed over per push_slice/pop_batch —
   the observable for the batching satellite (a healthy overloaded
   server shows batches near the slice cap, not 1). *)
let batch_hist =
  Crd_obs.histogram
    ~buckets:[| 1.; 2.; 4.; 8.; 16.; 32.; 64.; 128.; 256.; 512. |]
    ~help:"Events per batched Bqueue handoff" "bqueue_batch_size"

type 'a t = {
  mu : Mutex.t;
  not_full : Condition.t;
  not_empty : Condition.t;
  q : 'a Queue.t;
  capacity : int;
  fault : Crd_fault.point option;
  weight : ('a -> int) option;
  mutable closed : bool;
}

let create ?fault ?weight ~capacity () =
  if capacity < 1 then invalid_arg "Bqueue.create: capacity must be >= 1";
  {
    mu = Mutex.create ();
    not_full = Condition.create ();
    not_empty = Condition.create ();
    q = Queue.create ();
    capacity;
    fault;
    weight;
    closed = false;
  }

(* Weight is charged under the queue mutex but into a process-global
   atomic gauge; the gauge can momentarily disagree with the sum of
   queue contents during a push, which is fine for load signals. *)
let charge t x =
  match t.weight with
  | None -> ()
  | Some w -> Crd_obs.Gauge.add mem_queue_bytes (w x)

let release t x =
  match t.weight with
  | None -> ()
  | Some w -> Crd_obs.Gauge.add mem_queue_bytes (-w x)

let push_raw t x =
  Mutex.lock t.mu;
  while (not t.closed) && Queue.length t.q >= t.capacity do
    Condition.wait t.not_full t.mu
  done;
  let accepted = not t.closed in
  if accepted then begin
    Queue.push x t.q;
    charge t x;
    Condition.signal t.not_empty
  end;
  Mutex.unlock t.mu;
  accepted

let push t x =
  (match t.fault with Some p -> Crd_fault.inject p | None -> ());
  push_raw t x

(* Slice handoff: one lock round per burst instead of per element. The
   whole slice may exceed [capacity]; we admit sub-slices as room opens
   so a slice larger than the queue still goes through (in order), and
   consumers start draining the head while the tail is still waiting. *)
let push_slice t xs pos len =
  if len < 0 || pos < 0 || pos + len > Array.length xs then
    invalid_arg "Bqueue.push_slice";
  (match t.fault with
  | Some p -> if len > 0 then Crd_fault.inject p
  | None -> ());
  if len > 0 then Crd_obs.Histogram.observe batch_hist (float_of_int len);
  Mutex.lock t.mu;
  let i = ref pos in
  let stop = pos + len in
  while !i < stop && not t.closed do
    while (not t.closed) && Queue.length t.q >= t.capacity do
      Condition.wait t.not_full t.mu
    done;
    if not t.closed then begin
      let room = t.capacity - Queue.length t.q in
      let n = min room (stop - !i) in
      for k = !i to !i + n - 1 do
        let x = Array.unsafe_get xs k in
        Queue.push x t.q;
        charge t x
      done;
      i := !i + n;
      if n > 1 then Condition.broadcast t.not_empty
      else Condition.signal t.not_empty
    end
  done;
  let accepted = !i - pos in
  Mutex.unlock t.mu;
  accepted

let pop t =
  Mutex.lock t.mu;
  while (not t.closed) && Queue.is_empty t.q do
    Condition.wait t.not_empty t.mu
  done;
  let item =
    if Queue.is_empty t.q then None
    else begin
      let x = Queue.pop t.q in
      release t x;
      Condition.signal t.not_full;
      Some x
    end
  in
  Mutex.unlock t.mu;
  item

(* Batched pop: blocks for the first element, then greedily takes up to
   [max] without further waiting — latency of pop, throughput of a
   burst drain. *)
let pop_batch t ~max:limit =
  if limit < 1 then invalid_arg "Bqueue.pop_batch: max must be >= 1";
  Mutex.lock t.mu;
  while (not t.closed) && Queue.is_empty t.q do
    Condition.wait t.not_empty t.mu
  done;
  let n = min limit (Queue.length t.q) in
  let batch =
    if n = 0 then [||]
    else begin
      let first = Queue.pop t.q in
      release t first;
      let out = Array.make n first in
      for k = 1 to n - 1 do
        let x = Queue.pop t.q in
        release t x;
        Array.unsafe_set out k x
      done;
      if n > 1 then Condition.broadcast t.not_full
      else Condition.signal t.not_full;
      out
    end
  in
  Mutex.unlock t.mu;
  if n > 0 then Crd_obs.Histogram.observe batch_hist (float_of_int n);
  batch

let close t =
  Mutex.lock t.mu;
  t.closed <- true;
  Condition.broadcast t.not_full;
  Condition.broadcast t.not_empty;
  Mutex.unlock t.mu

(* Abandon whatever is still queued, releasing its accounted weight —
   the error-path counterpart of pop, so a session that dies mid-drain
   does not leak mem_queue_bytes forever. *)
let discard t =
  Mutex.lock t.mu;
  let n = Queue.length t.q in
  while not (Queue.is_empty t.q) do
    release t (Queue.pop t.q)
  done;
  Condition.broadcast t.not_full;
  Mutex.unlock t.mu;
  n

let length t =
  Mutex.lock t.mu;
  let n = Queue.length t.q in
  Mutex.unlock t.mu;
  n
