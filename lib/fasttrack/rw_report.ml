open Crd_base

type kind = Write_write | Write_read | Read_write

type t = { index : int; loc : Mem_loc.t; tid : Tid.t; kind : kind }

let kind_name = function
  | Write_write -> "write-write"
  | Write_read -> "write-read"
  | Read_write -> "read-write"

let pp ppf t =
  Fmt.pf ppf "%s race at event %d: %a accesses %a" (kind_name t.kind) t.index
    Tid.pp t.tid Mem_loc.pp t.loc

module Locs = Hashtbl.Make (Mem_loc)

type locations = unit Locs.t

let locations () = Locs.create 64
let add_location seen r = Locs.replace seen r.loc ()

let union_count = function
  | [] -> 0
  | seen :: rest ->
      List.iter (Locs.iter (fun loc () -> Locs.replace seen loc ())) rest;
      Locs.length seen

let distinct_locations reports =
  let seen = locations () in
  List.iter (add_location seen) reports;
  union_count [ seen ]
