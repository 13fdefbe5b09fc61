open Crd_base
open Crd_fasttrack

type state = Virgin | Exclusive of Tid.t | Shared | Shared_modified | Alarmed

module LockSet = Set.Make (struct
  type t = int

  let compare = Int.compare
end)

type shadow = {
  mutable st : state;
  mutable candidates : LockSet.t option;  (* None = "all locks" (top) *)
}

module LocTbl = Hashtbl.Make (struct
  type t = Mem_loc.t

  let equal = Mem_loc.equal
  let hash = Mem_loc.hash
end)

type t = {
  shadows : shadow LocTbl.t;
  held : (int, LockSet.t) Hashtbl.t;  (* per thread *)
  mutable reports : Rw_report.t list;
}

let create () =
  { shadows = LocTbl.create 256; held = Hashtbl.create 16; reports = [] }

let held t tid =
  Option.value ~default:LockSet.empty (Hashtbl.find_opt t.held (Tid.to_int tid))

let on_acquire t tid l =
  Hashtbl.replace t.held (Tid.to_int tid)
    (LockSet.add (Lock_id.id l) (held t tid))

let on_release t tid l =
  Hashtbl.replace t.held (Tid.to_int tid)
    (LockSet.remove (Lock_id.id l) (held t tid))

let shadow t loc =
  match LocTbl.find_opt t.shadows loc with
  | Some s -> s
  | None ->
      let s = { st = Virgin; candidates = None } in
      LocTbl.add t.shadows loc s;
      s

let intersect t tid (s : shadow) =
  let locks = held t tid in
  s.candidates <-
    (match s.candidates with
    | None -> Some locks
    | Some c -> Some (LockSet.inter c locks))

let empty_candidates (s : shadow) =
  match s.candidates with Some c -> LockSet.is_empty c | None -> false

let alarm t ~index ~tid ~loc kind (s : shadow) =
  s.st <- Alarmed;
  let r = { Rw_report.index; loc; tid; kind } in
  t.reports <- r :: t.reports;
  r

let on_read t ~index tid loc =
  let s = shadow t loc in
  match s.st with
  | Alarmed -> None
  | Virgin ->
      s.st <- Exclusive tid;
      None
  | Exclusive owner when Tid.equal owner tid -> None
  | Exclusive _ | Shared ->
      s.st <- Shared;
      intersect t tid s;
      (* Eraser does not alarm on read sharing with empty locksets until a
         write is involved. *)
      None
  | Shared_modified ->
      intersect t tid s;
      if empty_candidates s then
        Some (alarm t ~index ~tid ~loc Rw_report.Write_read s)
      else None

let on_write t ~index tid loc =
  let s = shadow t loc in
  match s.st with
  | Alarmed -> []
  | Virgin ->
      s.st <- Exclusive tid;
      []
  | Exclusive owner when Tid.equal owner tid -> []
  | Exclusive _ | Shared | Shared_modified ->
      s.st <- Shared_modified;
      intersect t tid s;
      if empty_candidates s then
        [ alarm t ~index ~tid ~loc Rw_report.Write_write s ]
      else []

let state_of t loc =
  match LocTbl.find_opt t.shadows loc with
  | Some s -> s.st
  | None -> Virgin

let races t = List.rev t.reports
