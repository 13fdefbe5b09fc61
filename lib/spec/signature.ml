open Crd_trace

type t = { meth : string; args : string list; rets : string list }

let make ~meth ?(args = []) ?(rets = []) () = { meth; args; rets }
let slot_names t = t.args @ t.rets
let arity t = List.length t.args + List.length t.rets

let matches t (a : Action.t) =
  String.equal t.meth a.meth
  && List.length a.args = List.length t.args
  && List.length a.rets = List.length t.rets

let equal a b =
  String.equal a.meth b.meth
  && List.equal String.equal a.args b.args
  && List.equal String.equal a.rets b.rets

let pp ppf t =
  Fmt.pf ppf "%s(%a)" t.meth Fmt.(list ~sep:(any ", ") string) t.args;
  match t.rets with
  | [] -> ()
  | [ r ] -> Fmt.pf ppf " / %s" r
  | rs -> Fmt.pf ppf " / (%a)" Fmt.(list ~sep:(any ", ") string) rs
