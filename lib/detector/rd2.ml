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
   every later one. *)
type entry = {
  mutable ep_tid : Tid.t;
  mutable ep_clock : int;
  mutable evc : Vclock.t option;  (* [Some c]: promoted component clock *)
  mutable last_tid : Tid.t;
  mutable last_action : Action.t;
  mutable desc : string;  (* [""] until the first race on the entry *)
}

(* [Value.hash] builds a tuple per call; the structural hash of the value
   itself agrees with [Value.equal] just as well and allocates nothing. *)
module VTbl = Hashtbl.Make (struct
  type t = Value.t

  let equal = Value.equal
  let hash : t -> int = Hashtbl.hash
end)

module ObjTbl = Hashtbl.Make (Int)

(* The missing entry and the missing keyed table. Both are shared by
   every detector and never written: a slot holding one is empty. *)
let absent =
  {
    ep_tid = Tid.main;
    ep_clock = 0;
    evc = None;
    last_tid = Tid.main;
    last_action = Action.make ~obj:(Obj_id.make (-1)) ~meth:"" ();
    desc = "";
  }

let no_table : entry VTbl.t = VTbl.create 1

(* The active points of an object, by shape id: a ds shape has at most
   one entry, a keyed shape one per witnessed value. Looking a point up
   is an array read, plus one hash probe for a keyed point, and builds
   no [Point.t].

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
  ds : entry array;  (* by shape id; [absent] when inactive *)
  keyed : entry VTbl.t array;  (* by shape id; [no_table] until touched *)
  mutable stamp : int;  (* bumped whenever an entry's clock meta changes *)
  mutable lo_valid : bool;
  mutable lo_tid : Tid.t;
  mutable lo_clock : int;
  mutable lo_stamp : int;
  mutable lo_n : int;
  lo_shapes : int array;
  lo_values : Value.t array;
}

(* [shapes]/[values] hold the current action's points, written by
   [Repr.eta_into]. This scratch lives in the detector, one per domain:
   the [Repr.t] is shared read-only by every shard. *)
type t = {
  mode : mode;
  repr_for : Obj_id.t -> Repr.t option;
  objects : obj_state option ObjTbl.t;
  pool : Vclock.Pool.t option;  (* component-clock arena (single-owner) *)
  stats : stats;
  mutable reports : Report.t list;  (* newest first *)
  mutable shapes : int array;
  mutable values : Value.t array;
}

let create ?(mode = `Constant) ?pool ~repr_for () =
  {
    mode;
    repr_for;
    objects = ObjTbl.create 64;
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
    reports = [];
    shapes = [||];
    values = [||];
  }

let obj_state t (o : Obj_id.t) =
  let key = Obj_id.id o in
  match ObjTbl.find t.objects key with
  | st -> st
  | exception Not_found ->
      let st =
        match t.repr_for o with
        | None -> None
        | Some repr ->
            let n = Repr.max_points repr in
            if Array.length t.shapes < n then begin
              t.shapes <- Array.make n 0;
              t.values <- Array.make n Value.Nil
            end;
            let nshapes = Repr.num_shapes repr in
            Some
              {
                repr;
                ds = Array.make nshapes absent;
                keyed = Array.make nshapes no_table;
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
      ObjTbl.add t.objects key st;
      st

let release_object t o = ObjTbl.remove t.objects (Obj_id.id o)

let active_points t o =
  match ObjTbl.find_opt t.objects (Obj_id.id o) with
  | Some (Some st) ->
      Array.fold_left (fun n e -> if e == absent then n else n + 1) 0 st.ds
      + Array.fold_left (fun n tbl -> n + VTbl.length tbl) 0 st.keyed
  | _ -> 0

(* The entry of point (id, v), or [absent]. *)
let find st ~keyed id v =
  if keyed then
    match VTbl.find st.keyed.(id) v with e -> e | exception Not_found -> absent
  else st.ds.(id)

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
      prior = Some (e.last_tid, e.last_action);
    }
  in
  t.reports <- r :: t.reports;
  r

(* Whether the action's [n] points are the cached last race-free ones. *)
let rec same_points st shapes values i =
  i < 0
  || st.lo_shapes.(i) = shapes.(i)
     && Value.equal st.lo_values.(i) values.(i)
     && same_points st shapes values (i - 1)

(* Phase 1, [`Linear]: scan every active entry of the object and test
   each against the action's [i]th point pairwise; return [found] with
   the races added. *)
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
  Array.iteri
    (fun id' tbl ->
      VTbl.iter (fun v' e -> check ~keyed:true id' (Value.equal v v') e) tbl)
    st.keyed;
  !found

let on_action t ~index tid (action : Action.t) vc =
  match obj_state t action.Action.obj with
  | None -> []
  | Some st ->
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
      (* Phase 2: update the auxiliary state. *)
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
          entry.last_tid <- tid;
          entry.last_action <- action
        end
        else begin
          let entry =
            {
              ep_tid = tid;
              ep_clock = own;
              evc = None;
              last_tid = tid;
              last_action = action;
              desc = "";
            }
          in
          if keyed then begin
            if st.keyed.(id) == no_table then st.keyed.(id) <- VTbl.create 8;
            VTbl.add st.keyed.(id) v entry
          end
          else st.ds.(id) <- entry;
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
