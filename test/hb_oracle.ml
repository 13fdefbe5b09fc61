(* The happens-before engine as it was before the live-clock pass: two
   [Hashtbl] lookups per event, a fresh snapshot per thread segment and
   a copy of the pre-update clock at every sync event. Kept verbatim as
   the oracle that [Hb.step] and [Hb.advance] must agree with. *)

open Crd

type thread_state = {
  clock : Vclock.t;
  mutable snap : Vclock.t option;  (* cached stable copy of [clock] *)
}

type t = {
  threads : (int, thread_state) Hashtbl.t;
  locks : (int, Vclock.t) Hashtbl.t;
}

let create () = { threads = Hashtbl.create 16; locks = Hashtbl.create 16 }

let thread t tid =
  let key = Tid.to_int tid in
  match Hashtbl.find_opt t.threads key with
  | Some st -> st
  | None ->
      (* A thread starts at [inc_tau bot] so that distinct threads that
         have never synchronized are concurrent, not equal. *)
      let clock = Vclock.bot () in
      Vclock.incr clock tid;
      let st = { clock; snap = None } in
      Hashtbl.add t.threads key st;
      st

let invalidate st = st.snap <- None

let snapshot t tid =
  let st = thread t tid in
  match st.snap with
  | Some s -> s
  | None ->
      let s = Vclock.copy st.clock in
      st.snap <- Some s;
      s

let raw_clock t tid = (thread t tid).clock
let epoch t tid = Vclock.Epoch.of_vclock (thread t tid).clock tid

let lock_clock t l =
  match Hashtbl.find_opt t.locks (Lock_id.id l) with
  | Some c -> c
  | None ->
      let c = Vclock.bot () in
      Hashtbl.add t.locks (Lock_id.id l) c;
      c

let step t (e : Event.t) =
  let st = thread t e.tid in
  let before = snapshot t e.tid in
  (match e.op with
  | Call _ | Read _ | Write _ | Begin | End -> ()
  | Fork u ->
      let child = thread t u in
      (* T(u) <- inc_u (T tau); the child was initialized to inc_u bot, so
         joining the parent's clock yields exactly inc_u (T tau) as long as
         the child has not run yet. *)
      Vclock.join_into ~into:child.clock st.clock;
      invalidate child;
      Vclock.incr st.clock e.tid;
      invalidate st
  | Join u ->
      let child = thread t u in
      Vclock.join_into ~into:st.clock child.clock;
      invalidate st
  | Acquire l ->
      Vclock.join_into ~into:st.clock (lock_clock t l);
      invalidate st
  | Release l ->
      (* L(l) <- T(tau). The lock clock is owned by this table and never
         escapes (Acquire only joins from it), so overwrite it in place
         instead of allocating a fresh copy per release. *)
      Vclock.copy_into ~into:(lock_clock t l) st.clock;
      Vclock.incr st.clock e.tid;
      invalidate st);
  before
