open Crd_base
open Crd_trace

type t = {
  index : int;
  obj : Obj_id.t;
  tid : Tid.t;
  action : Action.t;
  point : string;
  conflicting : string;
  prior : (Tid.t * Action.t) option;
}

(* The one rendering of a race, written straight into a buffer: every
   race line (rd2 check -v, session replies, journal [.report] files)
   goes through here, with no Format work and no allocation per race
   (integers through [Value.add_int]). *)
let to_buffer buf t =
  Buffer.add_string buf "commutativity race at event ";
  Value.add_int buf t.index;
  Buffer.add_string buf ": T";
  Value.add_int buf (Tid.to_int t.tid);
  Buffer.add_string buf ": ";
  Action.to_buffer buf t.action;
  Buffer.add_string buf " [";
  Buffer.add_string buf t.point;
  Buffer.add_string buf " conflicts with ";
  Buffer.add_string buf t.conflicting;
  Buffer.add_char buf ']';
  match t.prior with
  | None -> ()
  | Some (tid, a) ->
      Buffer.add_string buf " last touched by T";
      Value.add_int buf (Tid.to_int tid);
      Buffer.add_string buf ": ";
      Action.to_buffer buf a

let add_line buf t =
  to_buffer buf t;
  Buffer.add_char buf '\n'

let pp ppf t =
  let buf = Buffer.create 160 in
  to_buffer buf t;
  Format.pp_print_string ppf (Buffer.contents buf)

let distinct_objects reports =
  let ids = List.sort_uniq Int.compare (List.map (fun r -> Obj_id.id r.obj) reports) in
  List.length ids

(* ------------------------------------------------------------------ *)
(* Fingerprints.                                                       *)

(* FNV-1a over 64 bits of six fields: the spec, the object name and
   the two (method, point) sides. Each field is terminated by a NUL byte
   so that field boundaries shift the hash ("ab","c" <> "a","bc").
   Objects are named "<spec>" or "<spec>:<suffix>" by the workload
   generators and the server's spec resolution, so the spec field is
   the object name up to its first ':'. One loop over the fields keeps
   the state in an unboxed local: nothing is allocated but the result. *)
let fnv_offset = 0xcbf29ce484222325L
let fnv_prime = 0x100000001b3L

let fingerprint t =
  let name = Obj_id.name t.obj in
  let spec_len = try String.index name ':' with Not_found -> String.length name in
  (* Normalize for symmetry: the same logical race can close from
     either end (current side touching [point], prior side having
     touched [conflicting], or the mirror image in another
     interleaving), so hash the unordered pair of (method, point)
     sides, smaller side first. *)
  let ma = t.action.Action.meth and pa = t.point in
  let mb = match t.prior with Some (_, a) -> a.Action.meth | None -> "" in
  let pb = t.conflicting in
  let c = String.compare ma mb in
  let a_first = c < 0 || (c = 0 && String.compare pa pb <= 0) in
  let h = ref fnv_offset in
  for field = 0 to 5 do
    let s =
      match field with
      | 0 | 1 -> name
      | 2 -> if a_first then ma else mb
      | 3 -> if a_first then pa else pb
      | 4 -> if a_first then mb else ma
      | _ -> if a_first then pb else pa
    in
    let len = if field = 0 then spec_len else String.length s in
    for i = 0 to len - 1 do
      h :=
        Int64.mul
          (Int64.logxor !h (Int64.of_int (Char.code (String.unsafe_get s i))))
          fnv_prime
    done;
    (* The NUL terminator: xor with 0 leaves the state as it is. *)
    h := Int64.mul !h fnv_prime
  done;
  !h

let fingerprint_hex t = Printf.sprintf "%016Lx" (fingerprint t)

module Fps = Hashtbl.Make (Int64)

type fingerprints = unit Fps.t

let fingerprints () = Fps.create 1024
let add_fingerprint seen r = Fps.replace seen (fingerprint r) ()

(* The sets deduplicate, so only the distinct values are sorted: a hot
   point's thousands of races share a handful of fingerprints. *)
let sorted_union = function
  | [] -> [||]
  | seen :: rest ->
      List.iter (Fps.iter (fun fp () -> Fps.replace seen fp ())) rest;
      let fps = Array.make (Fps.length seen) 0L in
      let n = ref 0 in
      Fps.iter
        (fun fp () ->
          fps.(!n) <- fp;
          incr n)
        seen;
      Array.sort Int64.unsigned_compare fps;
      fps

let distinct_fingerprints reports =
  let seen = fingerprints () in
  List.iter (add_fingerprint seen) reports;
  sorted_union [ seen ]

let distinct reports = Array.length (distinct_fingerprints reports)
