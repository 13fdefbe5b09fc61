(** Bounded blocking queues — the one hand-off primitive between
    threads and domains: the analyzer's event chunks to its shard
    workers, and in the server accepted connections to workers,
    finished session batches to the racedb publisher, spilled segments
    to the catch-up drainer.

    [push] blocks while the queue is at capacity, so a producer that
    outruns its consumer waits instead of growing memory. A consumer
    that stops early closes the queue, which turns the producer's next
    [push] into a refusal instead of a wait that never ends. *)

type 'a t

val create : capacity:int -> unit -> 'a t
(** @raise Invalid_argument if [capacity < 1]. *)

val push : 'a t -> 'a -> bool
(** Block until there is room, then enqueue; [false] if the queue was
    closed (the element is dropped). *)

val pop : 'a t -> 'a option
(** Block until an element is available; [None] once the queue is
    closed {e and} drained. *)

val close : 'a t -> unit
(** Wake all blocked producers and consumers. Idempotent. *)

val length : 'a t -> int
