open Crd_base
open Crd_vclock

module Epoch = Vclock.Epoch

type stats = {
  mutable reads : int;
  mutable writes : int;
  mutable same_epoch : int;
  mutable races : int;
}

type read_meta = Repoch of Epoch.t | Rvc of Vclock.t

type shadow = { mutable w : Epoch.t; mutable r : read_meta }

module LocTbl = Hashtbl.Make (struct
  type t = Mem_loc.t

  let equal = Mem_loc.equal
  let hash = Mem_loc.hash
end)

type t = {
  shadows : shadow LocTbl.t;
  pool : Vclock.Pool.t option;  (* read-clock arena (single-owner) *)
  stats : stats;
  collect : bool;
  mutable reports : Rw_report.t list;  (* newest first; only when [collect] *)
}

let create ?pool ?(collect = true) () =
  {
    shadows = LocTbl.create 1024;
    pool;
    stats = { reads = 0; writes = 0; same_epoch = 0; races = 0 };
    collect;
    reports = [];
  }

let shadow t loc =
  match LocTbl.find_opt t.shadows loc with
  | Some s -> s
  | None ->
      let s = { w = Epoch.none; r = Repoch Epoch.none } in
      LocTbl.add t.shadows loc s;
      s

let report t ~index ~tid ~loc kind =
  t.stats.races <- t.stats.races + 1;
  let r = { Rw_report.index; loc; tid; kind } in
  if t.collect then t.reports <- r :: t.reports;
  r

let on_read t ~index tid loc clock =
  t.stats.reads <- t.stats.reads + 1;
  let s = shadow t loc in
  let e = Epoch.of_vclock clock tid in
  match s.r with
  | Repoch re when Epoch.equal re e ->
      (* SAME EPOCH fast path. *)
      t.stats.same_epoch <- t.stats.same_epoch + 1;
      None
  | _ ->
      let race =
        if not (Epoch.leq s.w clock) then
          Some (report t ~index ~tid ~loc Rw_report.Write_read)
        else None
      in
      (match s.r with
      | Repoch re ->
          if Epoch.leq re clock then
            (* EXCLUSIVE: reads remain totally ordered. *)
            s.r <- Repoch e
          else begin
            (* SHARE: inflate to a read vector clock. *)
            let vc =
              match t.pool with
              | Some p -> Vclock.Pool.acquire p
              | None -> Vclock.bot ()
            in
            Vclock.set vc (Epoch.tid re) (Epoch.clock re);
            Vclock.set vc tid (Epoch.clock e);
            s.r <- Rvc vc
          end
      | Rvc vc ->
          (* SHARED: update this thread's read entry. *)
          Vclock.set vc tid (Epoch.clock e));
      race

let on_write t ~index tid loc clock =
  t.stats.writes <- t.stats.writes + 1;
  let s = shadow t loc in
  let e = Epoch.of_vclock clock tid in
  if Epoch.equal s.w e then begin
    (* SAME EPOCH fast path. *)
    t.stats.same_epoch <- t.stats.same_epoch + 1;
    []
  end
  else begin
    let races = ref [] in
    if not (Epoch.leq s.w clock) then
      races := report t ~index ~tid ~loc Rw_report.Write_write :: !races;
    (match s.r with
    | Repoch re ->
        if not (Epoch.leq re clock) then
          races := report t ~index ~tid ~loc Rw_report.Read_write :: !races
    | Rvc vc ->
        if not (Vclock.leq vc clock) then
          races := report t ~index ~tid ~loc Rw_report.Read_write :: !races;
        (* WRITE SHARED deflates read metadata back to a bottom epoch. *)
        s.r <- Repoch Epoch.none;
        (match t.pool with
        | Some p -> Vclock.Pool.release p vc
        | None -> ()));
    s.w <- e;
    List.rev !races
  end

let stats t = t.stats
let races t = List.rev t.reports
