open Crd_base

type t = { obj : Obj_id.t; meth : string; args : Value.t list; rets : Value.t list }

let make ~obj ~meth ?(args = []) ?(rets = []) () = { obj; meth; args; rets }
let slots t = t.args @ t.rets
let arity t = List.length t.args + List.length t.rets

let equal a b =
  Obj_id.equal a.obj b.obj
  && String.equal a.meth b.meth
  && List.equal Value.equal a.args b.args
  && List.equal Value.equal a.rets b.rets

(* A plain recursion rather than [List.iter] over a closure: the race
   writer calls this twice per race and allocates nothing on the way. *)
let rec add_rest buf = function
  | [] -> ()
  | v :: vs ->
      Buffer.add_string buf ", ";
      Value.to_buffer buf v;
      add_rest buf vs

let add_values buf = function
  | [] -> ()
  | v :: vs ->
      Value.to_buffer buf v;
      add_rest buf vs

(* [o.m(a, b)], then [/r] for one return or [/(r1, r2)] for several. *)
let to_buffer buf t =
  Buffer.add_string buf (Obj_id.name t.obj);
  Buffer.add_char buf '.';
  Buffer.add_string buf t.meth;
  Buffer.add_char buf '(';
  add_values buf t.args;
  Buffer.add_char buf ')';
  match t.rets with
  | [] -> ()
  | [ r ] ->
      Buffer.add_char buf '/';
      Value.to_buffer buf r
  | rs ->
      Buffer.add_string buf "/(";
      add_values buf rs;
      Buffer.add_char buf ')'

let to_string t =
  let buf = Buffer.create 64 in
  to_buffer buf t;
  Buffer.contents buf

let pp ppf t = Format.pp_print_string ppf (to_string t)
