type 'a t = {
  mu : Mutex.t;
  not_full : Condition.t;
  not_empty : Condition.t;
  q : 'a Queue.t;
  capacity : int;
  mutable closed : bool;
}

let create ~capacity () =
  if capacity < 1 then invalid_arg "Bqueue.create: capacity must be >= 1";
  {
    mu = Mutex.create ();
    not_full = Condition.create ();
    not_empty = Condition.create ();
    q = Queue.create ();
    capacity;
    closed = false;
  }

let push t x =
  Mutex.lock t.mu;
  while (not t.closed) && Queue.length t.q >= t.capacity do
    Condition.wait t.not_full t.mu
  done;
  let accepted = not t.closed in
  if accepted then begin
    Queue.push x t.q;
    Condition.signal t.not_empty
  end;
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
      Condition.signal t.not_full;
      Some x
    end
  in
  Mutex.unlock t.mu;
  item

let close t =
  Mutex.lock t.mu;
  t.closed <- true;
  Condition.broadcast t.not_full;
  Condition.broadcast t.not_empty;
  Mutex.unlock t.mu

let length t =
  Mutex.lock t.mu;
  let n = Queue.length t.q in
  Mutex.unlock t.mu;
  n
