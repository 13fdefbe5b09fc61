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
   touch — is two stores and no allocation. *)
type entry = {
  mutable ep_tid : Tid.t;
  mutable ep_clock : int;
  mutable evc : Vclock.t option;  (* [Some c]: promoted component clock *)
  mutable last_tid : Tid.t;
  mutable last_action : Action.t;
}

(* Cache of the last race-free invocation on an object: if the same
   thread re-invokes the same access points at an unchanged own-component
   (same epoch) and no entry clock of the object changed in between
   ([stamp] unchanged), phase 1 would recompute exactly the previous
   (race-free) outcome, so it can be skipped wholesale. The fields are
   inlined mutable ([lo_valid] gates them) to keep the per-action update
   allocation-free. *)
type obj_state = {
  repr : Repr.t;
  active : entry Point.Tbl.t;
  mutable stamp : int;  (* bumped whenever an entry's clock meta changes *)
  mutable lo_valid : bool;
  mutable lo_tid : Tid.t;
  mutable lo_clock : int;
  mutable lo_stamp : int;
  mutable lo_points : Point.t list;
}

type t = {
  mode : mode;
  repr_for : Obj_id.t -> Repr.t option;
  objects : (int, obj_state option) Hashtbl.t;
  pool : Vclock.Pool.t option;  (* component-clock arena (single-owner) *)
  stats : stats;
  mutable reports : Report.t list;  (* newest first *)
}

let create ?(mode = `Constant) ?pool ~repr_for () =
  {
    mode;
    repr_for;
    objects = Hashtbl.create 64;
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
  }

let obj_state t (o : Obj_id.t) =
  let key = Obj_id.id o in
  match Hashtbl.find_opt t.objects key with
  | Some st -> st
  | None ->
      let st =
        match t.repr_for o with
        | None -> None
        | Some repr ->
            Some
              {
                repr;
                active = Point.Tbl.create 16;
                stamp = 0;
                lo_valid = false;
                lo_tid = Tid.main;
                lo_clock = 0;
                lo_stamp = 0;
                lo_points = [];
              }
      in
      Hashtbl.add t.objects key st;
      st

let release_object t o = Hashtbl.remove t.objects (Obj_id.id o)

let active_points t o =
  match Hashtbl.find_opt t.objects (Obj_id.id o) with
  | Some (Some st) -> Point.Tbl.length st.active
  | _ -> 0

(* [entry_leq entry vc] iff every past toucher of the entry happens-before
   the action carrying [vc] — equivalent to the full-VC join test of
   Algorithm 1 (see DESIGN.md, "Epoch-adaptive entries"). *)
let entry_leq entry vc =
  match entry.evc with
  | None -> entry.ep_clock <= Vclock.get vc entry.ep_tid
  | Some c -> Vclock.leq c vc

let report t ~index ~tid ~(action : Action.t) ~repr ~pt ~pt' ~(entry : entry) =
  t.stats.races <- t.stats.races + 1;
  let r =
    {
      Report.index;
      obj = action.Action.obj;
      tid;
      action;
      point = Repr.point_desc repr pt;
      conflicting = Repr.point_desc repr pt';
      prior = Some (entry.last_tid, entry.last_action);
    }
  in
  t.reports <- r :: t.reports;
  r

let on_action t ~index tid (action : Action.t) vc =
  match obj_state t action.Action.obj with
  | None -> []
  | Some st ->
      t.stats.actions <- t.stats.actions + 1;
      let points = Repr.eta st.repr action in
      let own = Vclock.get vc tid in
      (* Phase 1: check for commutativity races (unless the same-epoch
         cache proves the checks would repeat a race-free outcome). *)
      let skip =
        st.lo_valid && st.lo_stamp = st.stamp && st.lo_clock = own
        && Tid.equal st.lo_tid tid
        && List.equal Point.equal st.lo_points points
      in
      let found = ref [] in
      if skip then t.stats.same_epoch <- t.stats.same_epoch + 1
      else
        List.iter
          (fun pt ->
            match t.mode with
            | `Constant ->
                List.iter
                  (fun pt' ->
                    t.stats.lookups <- t.stats.lookups + 1;
                    match Point.Tbl.find_opt st.active pt' with
                    | Some entry when not (entry_leq entry vc) ->
                        found :=
                          report t ~index ~tid ~action ~repr:st.repr ~pt ~pt'
                            ~entry
                          :: !found
                    | _ -> ())
                  (Repr.conflicts st.repr pt)
            | `Linear ->
                Point.Tbl.iter
                  (fun pt' entry ->
                    t.stats.lookups <- t.stats.lookups + 1;
                    if
                      Repr.conflict st.repr pt pt'
                      && not (entry_leq entry vc)
                    then
                      found :=
                        report t ~index ~tid ~action ~repr:st.repr ~pt ~pt'
                          ~entry
                        :: !found)
                  st.active)
          points;
      (* Phase 2: update the auxiliary state. *)
      let bump () = st.stamp <- st.stamp + 1 in
      List.iter
        (fun pt ->
          match Point.Tbl.find_opt st.active pt with
          | Some entry ->
              (match entry.evc with
              | None ->
                  if Tid.equal entry.ep_tid tid && entry.ep_clock = own then
                    (* Same epoch: the entry already records this touch. *)
                    ()
                  else if entry.ep_clock <= Vclock.get vc entry.ep_tid then begin
                    (* Still totally ordered: slide the epoch forward. *)
                    entry.ep_tid <- tid;
                    entry.ep_clock <- own;
                    bump ()
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
                    bump ()
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
                    bump ()
                  end
                  else begin
                    Vclock.set c tid own;
                    bump ()
                  end);
              entry.last_tid <- tid;
              entry.last_action <- action
          | None ->
              Point.Tbl.add st.active pt
                {
                  ep_tid = tid;
                  ep_clock = own;
                  evc = None;
                  last_tid = tid;
                  last_action = action;
                };
              bump ())
        points;
      if !found = [] then begin
        st.lo_valid <- true;
        st.lo_tid <- tid;
        st.lo_clock <- own;
        st.lo_stamp <- st.stamp;
        st.lo_points <- points
      end
      else st.lo_valid <- false;
      List.rev !found

let stats t = t.stats
let races t = List.rev t.reports
