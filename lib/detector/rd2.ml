open Crd_base
open Crd_vclock
open Crd_trace
open Crd_apoint
module Epoch = Vclock.Epoch

type mode = [ `Constant | `Linear ]

type stats = {
  mutable actions : int;
  mutable lookups : int;
  mutable races : int;
  mutable same_epoch : int;
  mutable promotions : int;
  mutable deflations : int;
}

(* Adaptive clock metadata, mirroring FastTrack's read-epoch/read-VC
   split. While every toucher of a point is totally ordered, the join of
   their clocks is faithfully represented by the last toucher's epoch
   c@t: a later action's clock dominates the join iff it dominates c@t
   (the toucher's release/fork, which is the only way its component-c
   segment escapes, carries its full clock). On the first concurrent
   toucher the entry inflates to a component clock {t -> c} per toucher,
   which supports the same equivalence point-wise.

   The epoch lives in two unboxed mutable fields ([ep_tid]/[ep_clock],
   meaningful while [evc = None]) so the common slide — another ordered
   touch — is two stores and no allocation. [desc] is the point as race
   reports describe it, rendered on the entry's first race and shared by
   every later one. A keyed entry carries its key ([shape], [value]) and
   the [next] link of its object's bucket chain; a ds entry's [value] is
   [Nil] and its [next] unused.

   The last toucher, which a race report names as its prior, is kept by
   value: its thread, object and method (interned by the decoder or
   immediate) and its [last_nargs] arguments then returns in the first
   [last_arity] slots of [last_vals], an array as long as the repr's
   widest method. No decoded [Action.t] is retained, so a call that
   closes no collected race dies young. [report] rebuilds the prior on
   demand; a collecting detector memoizes it in [last_action] (and
   stores a raced call's own action there), so its reports share priors
   as they would share the decoded actions. [no_action] marks it
   unset. *)
type entry = {
  mutable ep_tid : Tid.t;
  mutable ep_clock : int;
  mutable evc : Vclock.t option;  (* [Some c]: promoted component clock *)
  mutable last_tid : Tid.t;
  mutable last_obj : Obj_id.t;
  mutable last_meth : string;
  mutable last_nargs : int;
  mutable last_arity : int;
  last_vals : Value.t array;
  mutable last_action : Action.t;  (* [no_action] unless memoized *)
  mutable desc : string;  (* [""] until the first race on the entry *)
  shape : int;
  value : Value.t;
  mutable next : entry;  (* [absent] ends a chain *)
}

module ObjTbl = Hashtbl.Make (Int)

let no_obj = Obj_id.make (-1)
let no_action = Action.make ~obj:no_obj ~meth:"" ()

(* The missing entry, shared by every detector and never written: a slot
   or a chain link holding it is empty. *)
let rec absent =
  {
    ep_tid = Tid.main;
    ep_clock = 0;
    evc = None;
    last_tid = Tid.main;
    last_obj = no_obj;
    last_meth = "";
    last_nargs = 0;
    last_arity = 0;
    last_vals = [||];
    last_action = no_action;
    desc = "";
    shape = -1;
    value = Value.Nil;
    next = absent;
  }

(* The bucket array of an object that has no keyed entry yet: one empty
   chain, so a probe needs no special case. Shared, never written. *)
let no_buckets = [| absent |]

(* The active points of an object: a ds shape has at most one entry, in
   [ds] by shape id; a keyed shape one per witnessed value, chained by
   hash in [buckets] (a power of two long, doubled when [nkeyed] reaches
   its length). Looking a point up is an array read, plus a short chain
   walk for a keyed point, and builds no [Point.t].

   Cache of the last race-free invocation on an object: if the same
   thread re-invokes the same access points at an unchanged own-component
   (same epoch) and no entry clock of the object changed in between
   ([stamp] unchanged), phase 1 would recompute exactly the previous
   (race-free) outcome, so it can be skipped wholesale. The fields are
   inlined mutable ([lo_valid] gates them; the points are the first
   [lo_n] of [lo_shapes]/[lo_values]) to keep the per-action update
   allocation-free. *)
type obj_state = {
  repr : Repr.t;
  width : int;  (* the repr's widest arity: each entry's [last_vals] *)
  ds : entry array;  (* by shape id; [absent] when inactive *)
  mutable buckets : entry array;  (* keyed entries; [no_buckets] until one *)
  mutable nkeyed : int;
  mutable stamp : int;  (* bumped whenever an entry's clock meta changes *)
  mutable lo_valid : bool;
  mutable lo_tid : Tid.t;
  mutable lo_clock : int;
  mutable lo_stamp : int;
  mutable lo_n : int;
  lo_shapes : int array;
  lo_values : Value.t array;
}

(* An object's slot in the detector: never seen, seen and not monitored
   ([repr_for] gave [None]), or its state. *)
type slot = Unseen | Unmonitored | Seen of obj_state

(* Object ids in [[0, dense_limit)] index [dense] (the bound of
   [Bigcodec]'s dense reference table: real encoders count up from
   zero); any other id, negative ones included, lives in [spill].

   [shapes]/[values] hold the current action's points, written by
   [Repr.eta_into]. This scratch lives in the detector, one per domain:
   the [Repr.t] is shared read-only by every shard. *)
type t = {
  mode : mode;
  repr_for : Obj_id.t -> Repr.t option;
  mutable dense : slot array;
  spill : slot ObjTbl.t;
  pool : Vclock.Pool.t option;  (* component-clock arena (single-owner) *)
  stats : stats;
  collect : bool;
  mutable reports : Report.t list;  (* newest first; only when [collect] *)
  mutable shapes : int array;
  mutable values : Value.t array;
}

let dense_limit = 1 lsl 16

let create ?(mode = `Constant) ?pool ?(collect = true) ~repr_for () =
  {
    mode;
    repr_for;
    dense = Array.make 64 Unseen;
    spill = ObjTbl.create 8;
    pool;
    stats =
      {
        actions = 0;
        lookups = 0;
        races = 0;
        same_epoch = 0;
        promotions = 0;
        deflations = 0;
      };
    collect;
    reports = [];
    shapes = [||];
    values = [||];
  }

let is_dense id = id >= 0 && id < dense_limit

let slot t id =
  if is_dense id then
    if id < Array.length t.dense then Array.unsafe_get t.dense id else Unseen
  else match ObjTbl.find t.spill id with s -> s | exception Not_found -> Unseen

let set_slot t id s =
  if is_dense id then begin
    let n = Array.length t.dense in
    if id >= n then begin
      let grown = Array.make (min dense_limit (max (id + 1) (2 * n))) Unseen in
      Array.blit t.dense 0 grown 0 n;
      t.dense <- grown
    end;
    t.dense.(id) <- s
  end
  else ObjTbl.replace t.spill id s

let new_slot t (o : Obj_id.t) =
  let s =
    match t.repr_for o with
    | None -> Unmonitored
    | Some repr ->
        let n = Repr.max_points repr in
        if Array.length t.shapes < n then begin
          t.shapes <- Array.make n 0;
          t.values <- Array.make n Value.Nil
        end;
        Seen
          {
            repr;
            width = n - 1;
            ds = Array.make (Repr.num_shapes repr) absent;
            buckets = no_buckets;
            nkeyed = 0;
            stamp = 0;
            lo_valid = false;
            lo_tid = Tid.main;
            lo_clock = 0;
            lo_stamp = 0;
            lo_n = 0;
            lo_shapes = Array.make n 0;
            lo_values = Array.make n Value.Nil;
          }
  in
  set_slot t (Obj_id.id o) s;
  s

let release_object t o =
  let id = Obj_id.id o in
  if is_dense id then (if id < Array.length t.dense then t.dense.(id) <- Unseen)
  else ObjTbl.remove t.spill id

let active_points t o =
  match slot t (Obj_id.id o) with
  | Seen st ->
      Array.fold_left (fun n e -> if e == absent then n else n + 1) 0 st.ds
      + st.nkeyed
  | Unseen | Unmonitored -> 0

(* The bucket of keyed point (id, v) in a table of [mask + 1] buckets. The
   hash agrees with [Value.equal] (equal values hash alike: the value
   itself for an immediate, the string hash for [Str]) and allocates
   nothing; the odd multiplier sends consecutive integer keys of one
   shape to distinct buckets, apart from those of its neighbour shapes. *)
let bucket mask id (v : Value.t) =
  let h =
    match v with
    | Int i | Ref i -> i
    | Str s -> Hashtbl.hash s
    | Bool b -> Bool.to_int b
    | Nil -> 0
  in
  ((h * 65599) + id) land mask

let rec chain_find e id v =
  if e == absent || (e.shape = id && Value.equal e.value v) then e
  else chain_find e.next id v

(* The entry of point (id, v), or [absent]. *)
let find st ~keyed id v =
  if keyed then
    let b = st.buckets in
    chain_find (Array.unsafe_get b (bucket (Array.length b - 1) id v)) id v
  else st.ds.(id)

let link b e =
  let i = bucket (Array.length b - 1) e.shape e.value in
  e.next <- b.(i);
  b.(i) <- e

(* Link a fresh keyed entry into its chain, first replacing [no_buckets]
   or doubling the bucket array once the entry count reaches its
   length. *)
let add_keyed st e =
  let old = st.buckets in
  if old == no_buckets then st.buckets <- Array.make 8 absent
  else if st.nkeyed >= Array.length old then begin
    let b = Array.make (2 * Array.length old) absent in
    let rec move e =
      if e != absent then begin
        let next = e.next in
        link b e;
        move next
      end
    in
    Array.iter move old;
    st.buckets <- b
  end;
  link st.buckets e;
  st.nkeyed <- st.nkeyed + 1

(* [entry_leq entry vc] iff every past toucher of the entry happens-before
   the action carrying [vc] — equivalent to the full-VC join test of
   Algorithm 1 (see DESIGN.md, "Epoch-adaptive entries"). *)
let entry_leq entry vc =
  match entry.evc with
  | None -> entry.ep_clock <= Vclock.get vc entry.ep_tid
  | Some c -> Vclock.leq c vc

let point_desc repr ~keyed id v =
  Repr.point_desc repr (if keyed then Point.Keyed (id, v) else Point.Ds id)

let entry_desc repr (e : entry) ~keyed id v =
  if e.desc = "" then e.desc <- point_desc repr ~keyed id v;
  e.desc

(* The description of the action's [i]th point: its entry's, unless the
   action is the point's first toucher. *)
let current_desc t st i ~keyed =
  let id = t.shapes.(i) and v = t.values.(i) in
  let e = find st ~keyed id v in
  if e != absent then entry_desc st.repr e ~keyed id v
  else point_desc st.repr ~keyed id v

let rec values_from vals i stop =
  if i = stop then [] else vals.(i) :: values_from vals (i + 1) stop

(* The entry's last toucher as an action: the memoized one, or one
   rebuilt from its values (and memoized when collecting). *)
let prior t (e : entry) =
  if e.last_action != no_action then e.last_action
  else
    let a =
      {
        Action.obj = e.last_obj;
        meth = e.last_meth;
        args = values_from e.last_vals 0 e.last_nargs;
        rets = values_from e.last_vals e.last_nargs e.last_arity;
      }
    in
    if t.collect then e.last_action <- a;
    a

(* A store only where the value changed: a hot entry often sees the same
   (shared) values again, and an unchanged slot needs no write barrier. *)
let rec put_values vals i = function
  | [] -> i
  | v :: vs ->
      if vals.(i) != v then vals.(i) <- v;
      put_values vals (i + 1) vs

(* Record [action] by [tid] as the entry's last toucher, by value. [memo]
   is the action itself when a collected report keeps it, [no_action]
   otherwise. The action's arity was checked against the repr by
   [Repr.eta_into], so it fits [last_vals]. *)
let touch (e : entry) tid (action : Action.t) memo =
  e.last_tid <- tid;
  if e.last_obj != action.obj then e.last_obj <- action.obj;
  if e.last_meth != action.meth then e.last_meth <- action.meth;
  let nargs = put_values e.last_vals 0 action.args in
  e.last_nargs <- nargs;
  e.last_arity <- put_values e.last_vals nargs action.rets;
  if e.last_action != memo then e.last_action <- memo

let report t st ~index ~tid ~(action : Action.t) i ~keyed ~id' (e : entry) =
  t.stats.races <- t.stats.races + 1;
  let r =
    {
      Report.index;
      obj = action.Action.obj;
      tid;
      action;
      point = current_desc t st i ~keyed;
      conflicting = entry_desc st.repr e ~keyed id' t.values.(i);
      prior = Some (e.last_tid, prior t e);
    }
  in
  if t.collect then t.reports <- r :: t.reports;
  r

(* Whether the action's [n] points are the cached last race-free ones. *)
let rec same_points st shapes values i =
  i < 0
  || st.lo_shapes.(i) = shapes.(i)
     && Value.equal st.lo_values.(i) values.(i)
     && same_points st shapes values (i - 1)

(* Phase 1, [`Linear]: scan every active entry of the object — the ds
   array, then each bucket chain — and test each against the action's
   [i]th point pairwise; return [found] with the races added. *)
let scan_linear t st ~index ~tid ~action vc i found =
  let found = ref found in
  let id = t.shapes.(i) and v = t.values.(i) in
  let keyed = Repr.is_keyed st.repr id in
  let co = Repr.conflict_ids st.repr id in
  let check ~keyed:keyed' id' ok e =
    t.stats.lookups <- t.stats.lookups + 1;
    if keyed = keyed' && ok && Array.mem id' co && not (entry_leq e vc) then
      found := report t st ~index ~tid ~action i ~keyed ~id' e :: !found
  in
  Array.iteri
    (fun id' e -> if e != absent then check ~keyed:false id' true e)
    st.ds;
  let rec chain e =
    if e != absent then begin
      check ~keyed:true e.shape (Value.equal v e.value) e;
      chain e.next
    end
  in
  Array.iter chain st.buckets;
  !found

let on_action t ~index tid (action : Action.t) vc =
  let obj = action.Action.obj in
  let s = match slot t (Obj_id.id obj) with Unseen -> new_slot t obj | s -> s in
  match s with
  | Unseen | Unmonitored -> []
  | Seen st ->
      t.stats.actions <- t.stats.actions + 1;
      let repr = st.repr and shapes = t.shapes and values = t.values in
      let n = Repr.eta_into repr action ~shapes ~values in
      let own = Vclock.get vc tid in
      (* Phase 1: check for commutativity races (unless the same-epoch
         cache proves the checks would repeat a race-free outcome). *)
      let skip =
        st.lo_valid && st.lo_stamp = st.stamp && st.lo_clock = own
        && Tid.equal st.lo_tid tid && st.lo_n = n
        && same_points st shapes values (n - 1)
      in
      let found = ref [] in
      if skip then t.stats.same_epoch <- t.stats.same_epoch + 1
      else
        for i = 0 to n - 1 do
          match t.mode with
          | `Constant ->
              let v = values.(i) in
              let keyed = Repr.is_keyed repr shapes.(i) in
              let co = Repr.conflict_ids repr shapes.(i) in
              for k = 0 to Array.length co - 1 do
                t.stats.lookups <- t.stats.lookups + 1;
                let e = find st ~keyed co.(k) v in
                if e != absent && not (entry_leq e vc) then
                  found :=
                    report t st ~index ~tid ~action i ~keyed ~id':co.(k) e
                    :: !found
              done
          | `Linear ->
              found := scan_linear t st ~index ~tid ~action vc i !found
        done;
      (* Phase 2: update the auxiliary state. A raced call is kept by
         its collected reports, so its entries may share it. *)
      let memo = if t.collect && !found <> [] then action else no_action in
      for i = 0 to n - 1 do
        let id = shapes.(i) and v = values.(i) in
        let keyed = Repr.is_keyed repr id in
        let entry = find st ~keyed id v in
        if entry != absent then begin
          (match entry.evc with
          | None ->
              if Tid.equal entry.ep_tid tid && entry.ep_clock = own then
                (* Same epoch: the entry already records this touch. *)
                ()
              else if entry.ep_clock <= Vclock.get vc entry.ep_tid then begin
                (* Still totally ordered: slide the epoch forward. *)
                entry.ep_tid <- tid;
                entry.ep_clock <- own;
                st.stamp <- st.stamp + 1
              end
              else begin
                (* First concurrent toucher: inflate to components. *)
                let c =
                  match t.pool with
                  | Some p -> Vclock.Pool.acquire p
                  | None -> Vclock.bot ()
                in
                Vclock.set c entry.ep_tid entry.ep_clock;
                Vclock.set c tid own;
                entry.evc <- Some c;
                t.stats.promotions <- t.stats.promotions + 1;
                st.stamp <- st.stamp + 1
              end
          | Some c ->
              if Vclock.get c tid = own then ()
              else if Vclock.leq c vc then begin
                (* Every past toucher is ordered before this one:
                   deflate back to a plain epoch. *)
                entry.evc <- None;
                (match t.pool with
                | Some p -> Vclock.Pool.release p c
                | None -> ());
                entry.ep_tid <- tid;
                entry.ep_clock <- own;
                t.stats.deflations <- t.stats.deflations + 1;
                st.stamp <- st.stamp + 1
              end
              else begin
                Vclock.set c tid own;
                st.stamp <- st.stamp + 1
              end);
          touch entry tid action memo
        end
        else begin
          let entry =
            {
              ep_tid = tid;
              ep_clock = own;
              evc = None;
              last_tid = tid;
              last_obj = obj;
              last_meth = action.meth;
              last_nargs = 0;
              last_arity = 0;
              last_vals = Array.make st.width Value.Nil;
              last_action = no_action;
              desc = "";
              shape = id;
              value = (if keyed then v else Value.Nil);
              next = absent;
            }
          in
          touch entry tid action memo;
          if keyed then add_keyed st entry else st.ds.(id) <- entry;
          st.stamp <- st.stamp + 1
        end
      done;
      if !found = [] then begin
        st.lo_valid <- true;
        st.lo_tid <- tid;
        st.lo_clock <- own;
        st.lo_stamp <- st.stamp;
        st.lo_n <- n;
        Array.blit shapes 0 st.lo_shapes 0 n;
        Array.blit values 0 st.lo_values 0 n
      end
      else st.lo_valid <- false;
      List.rev !found

let stats t = t.stats
let races t = List.rev t.reports
