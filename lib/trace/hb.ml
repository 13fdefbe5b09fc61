open Crd_base
open Crd_vclock

(* [snap] is the segment's shared stable copy of [clock], or [no_snap]
   once a synchronization event has changed [clock] since it was taken. *)
type thread_state = { clock : Vclock.t; mutable snap : Vclock.t }

let no_snap = Vclock.bot ()

(* The empty slot of the thread table; never handed out. *)
let absent = { clock = no_snap; snap = no_snap }

module Locks = Hashtbl.Make (Int)

type t = {
  mutable threads : thread_state array;  (* indexed by tid *)
  locks : Vclock.t Locks.t;
}

let create () = { threads = Array.make 16 absent; locks = Locks.create 16 }

let fresh tid =
  (* A thread starts at [inc_tau bot] so that distinct threads that have
     never synchronized are concurrent, not equal. *)
  let clock = Vclock.bot () in
  Vclock.incr clock tid;
  { clock; snap = no_snap }

let rec thread t tid =
  let i = Tid.to_int tid in
  let threads = t.threads in
  if i < Array.length threads then begin
    let st = Array.unsafe_get threads i in
    if st != absent then st
    else begin
      let st = fresh tid in
      Array.unsafe_set threads i st;
      st
    end
  end
  else begin
    let n = Array.length threads in
    let grown = Array.make (min (Tid.max_id + 1) (max (i + 1) (2 * n))) absent in
    Array.blit threads 0 grown 0 n;
    t.threads <- grown;
    thread t tid
  end

let lock_clock t l =
  let key = Lock_id.id l in
  match Locks.find t.locks key with
  | c -> c
  | exception Not_found ->
      let c = Vclock.bot () in
      Locks.add t.locks key c;
      c

let stable st =
  if st.snap == no_snap then st.snap <- Vclock.copy st.clock;
  st.snap

let snapshot t tid = stable (thread t tid)

(* Table 1's update of [T]/[L] for [e], issued by the thread [st]. *)
let apply t st (e : Event.t) =
  match e.op with
  | Call _ | Read _ | Write _ | Begin | End -> ()
  | Fork u ->
      let child = thread t u in
      (* T(u) <- inc_u (T tau); the child was initialized to inc_u bot, so
         joining the parent's clock yields exactly inc_u (T tau) as long as
         the child has not run yet. *)
      Vclock.join_into ~into:child.clock st.clock;
      child.snap <- no_snap;
      Vclock.incr st.clock e.tid;
      st.snap <- no_snap
  | Join u ->
      Vclock.join_into ~into:st.clock (thread t u).clock;
      st.snap <- no_snap
  | Acquire l ->
      Vclock.join_into ~into:st.clock (lock_clock t l);
      st.snap <- no_snap
  | Release l ->
      (* L(l) <- T(tau). The lock clock is owned by this table and never
         escapes (Acquire only joins from it), so overwrite it in place
         instead of allocating a fresh copy per release. *)
      Vclock.copy_into ~into:(lock_clock t l) st.clock;
      Vclock.incr st.clock e.tid;
      st.snap <- no_snap

let advance t (e : Event.t) =
  let st = thread t e.tid in
  apply t st e;
  st.clock

let step t (e : Event.t) =
  let st = thread t e.tid in
  apply t st e;
  match e.op with
  | Call _ | Read _ | Write _ -> stable st
  | Fork _ | Join _ | Acquire _ | Release _ | Begin | End -> st.clock
