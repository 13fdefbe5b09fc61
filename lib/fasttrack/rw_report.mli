(** Low-level (read-write) race reports, as produced by FastTrack and
    DJIT+. These are the "FASTTRACK" columns of Table 2. *)

open Crd_base

type kind = Write_write | Write_read | Read_write

type t = { index : int; loc : Mem_loc.t; tid : Tid.t; kind : kind }

val pp : t Fmt.t

type locations
(** A mutable set of raced memory locations: what a caller keeps when it
    needs the distinct locations but not the reports themselves. *)

val locations : unit -> locations
(** An empty set. *)

val add_location : locations -> t -> unit
(** Add the report's location. *)

val union_count : locations list -> int
(** The number of distinct locations over all the sets. The union is
    built in the first set, which therefore gains the others' members. *)

val distinct_locations : t list -> int
(** The "(distinct)" count of Table 2: number of distinct memory
    locations (variables) with at least one race. *)
