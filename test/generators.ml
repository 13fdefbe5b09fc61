(* Shared QCheck generators: random values, actions, traces, ECL formulas
   and whole specifications. *)

open Crd
module Gen = QCheck2.Gen

(* ------------------------------------------------------------------ *)
(* Values                                                              *)
(* ------------------------------------------------------------------ *)

let value : Value.t Gen.t =
  Gen.oneof
    [
      Gen.return Value.Nil;
      Gen.map (fun b -> Value.Bool b) Gen.bool;
      Gen.map (fun i -> Value.Int i) (Gen.int_range (-3) 6);
      Gen.map (fun i -> Value.Str (Printf.sprintf "s%d" i)) (Gen.int_range 0 3);
      Gen.map (fun i -> Value.Ref i) (Gen.int_range 0 3);
    ]

(* The whole value domain, for printer tests: any int, negative ones
   too, and strings of arbitrary bytes, biased towards the bytes that
   need escaping. *)
let byte : char Gen.t =
  Gen.oneof
    [ Gen.char; Gen.oneofl [ '"'; '\\'; '\n'; '\t'; '\000'; '\x7f'; '\x80'; '\xff' ] ]

let any_value : Value.t Gen.t =
  Gen.oneof
    [
      Gen.return Value.Nil;
      Gen.map (fun b -> Value.Bool b) Gen.bool;
      Gen.map (fun i -> Value.Int i) Gen.int;
      Gen.map (fun s -> Value.Str s) (Gen.string_size ~gen:byte (Gen.int_range 0 12));
      Gen.map (fun i -> Value.Ref i) Gen.int;
    ]

(* Integers the digit writer must get right and [Gen.int] almost never
   draws: single digits, powers of ten and their neighbours, signs, and
   both ends of the range ([min_int] has no positive negation). *)
let edge_ints =
  let e18 = 1_000_000_000_000_000_000 in
  [ 0; 9; 10; 99; 100; -1; -9; -10; e18 - 1; e18; e18 + 1; -e18; max_int; min_int ]

(* Every edge integer as both an [Int] and a [Ref]. *)
let edge_values =
  List.concat_map (fun i -> [ Value.Int i; Value.Ref i ]) edge_ints

(* [any_value] with the edge integers mixed in. *)
let any_value_edges : Value.t Gen.t =
  Gen.oneof [ any_value; Gen.oneofl edge_values ]

let small_value : Value.t Gen.t =
  (* A deliberately tiny domain so collisions (equal slots) are common. *)
  Gen.oneofl [ Value.Nil; Value.Int 0; Value.Int 1; Value.Int 2 ]

(* ------------------------------------------------------------------ *)
(* Signatures and ECL formulas                                         *)
(* ------------------------------------------------------------------ *)

let signature ~meth : Signature.t Gen.t =
  let open Gen in
  let* nargs = int_range 0 2 in
  let* nrets = int_range 0 1 in
  return
    (Signature.make ~meth
       ~args:(List.init nargs (fun i -> Printf.sprintf "a%d" i))
       ~rets:(List.init nrets (fun i -> Printf.sprintf "r%d" i))
       ())

let var side slot = Atom.Var { Atom.side; slot; name = "" }

(* A single-sided (LB) atom over the slots of [n]-ary method on [side]. *)
let lb_atom ~side ~arity : Formula.t Gen.t =
  let open Gen in
  if arity = 0 then Gen.oneofl [ Formula.True; Formula.False ]
  else
    let* pred = oneofl [ Atom.Eq; Atom.Ne; Atom.Lt; Atom.Le ] in
    let* slot1 = int_range 0 (arity - 1) in
    let* rhs =
      oneof
        [
          map (fun v -> Atom.Const v) small_value;
          map (fun s -> var side s) (int_range 0 (arity - 1));
        ]
    in
    return (Formula.Atom { Atom.pred; lhs = var side slot1; rhs })

(* A SIMPLE (LS) atom: cross-side disequality. *)
let ls_atom ~arity1 ~arity2 : Formula.t Gen.t =
  let open Gen in
  if arity1 = 0 || arity2 = 0 then Gen.oneofl [ Formula.True; Formula.False ]
  else
    let* s1 = int_range 0 (arity1 - 1) in
    let* s2 = int_range 0 (arity2 - 1) in
    return
      (Formula.Atom
         { Atom.pred = Atom.Ne; lhs = var Atom.Side.Fst s1; rhs = var Atom.Side.Snd s2 })

let rec lb ~side ~arity depth : Formula.t Gen.t =
  let open Gen in
  if depth = 0 then lb_atom ~side ~arity
  else
    oneof
      [
        lb_atom ~side ~arity;
        map (fun f -> Formula.Not f) (lb ~side ~arity (depth - 1));
        map2
          (fun f g -> Formula.And (f, g))
          (lb ~side ~arity (depth - 1))
          (lb ~side ~arity (depth - 1));
        map2
          (fun f g -> Formula.Or (f, g))
          (lb ~side ~arity (depth - 1))
          (lb ~side ~arity (depth - 1));
      ]

let rec ls ~arity1 ~arity2 depth : Formula.t Gen.t =
  let open Gen in
  if depth = 0 then ls_atom ~arity1 ~arity2
  else
    oneof
      [
        ls_atom ~arity1 ~arity2;
        map2
          (fun f g -> Formula.And (f, g))
          (ls ~arity1 ~arity2 (depth - 1))
          (ls ~arity1 ~arity2 (depth - 1));
      ]

let lb_either ~arity1 ~arity2 depth : Formula.t Gen.t =
  Gen.oneof
    [ lb ~side:Atom.Side.Fst ~arity:arity1 depth;
      lb ~side:Atom.Side.Snd ~arity:arity2 depth ]

(* X ::= S | B | X /\ X | X \/ B *)
let rec ecl ~arity1 ~arity2 depth : Formula.t Gen.t =
  let open Gen in
  if depth = 0 then
    oneof [ ls ~arity1 ~arity2 0; lb_either ~arity1 ~arity2 0 ]
  else
    oneof
      [
        ls ~arity1 ~arity2 depth;
        lb_either ~arity1 ~arity2 depth;
        map2
          (fun f g -> Formula.And (f, g))
          (ecl ~arity1 ~arity2 (depth - 1))
          (ecl ~arity1 ~arity2 (depth - 1));
        map2
          (fun f g -> Formula.Or (f, g))
          (ecl ~arity1 ~arity2 (depth - 1))
          (lb_either ~arity1 ~arity2 (depth - 1));
      ]

(* ------------------------------------------------------------------ *)
(* Whole specifications                                                *)
(* ------------------------------------------------------------------ *)

let spec : Spec.t Gen.t =
  let open Gen in
  let* nmeth = int_range 1 3 in
  let* sigs =
    flatten_l
      (List.init nmeth (fun i -> signature ~meth:(Printf.sprintf "m%d" i)))
  in
  let* entries =
    flatten_l
      (List.concat_map
         (fun (s1 : Signature.t) ->
           List.filter_map
             (fun (s2 : Signature.t) ->
               if String.compare s1.Signature.meth s2.Signature.meth <= 0 then
                 Some
                   (let* phi =
                      ecl ~arity1:(Signature.arity s1)
                        ~arity2:(Signature.arity s2) 2
                    in
                    (* Self-pairs must be symmetric: symmetrize by
                       conjunction with the flipped formula (still ECL). *)
                    let phi =
                      if String.equal s1.Signature.meth s2.Signature.meth then
                        Formula.And (phi, Formula.flip_sides phi)
                      else phi
                    in
                    return (s1.Signature.meth, s2.Signature.meth, phi))
               else None)
             sigs)
         sigs)
  in
  match Spec.make ~name:"gen" ~methods:sigs entries with
  | Ok spec -> return spec
  | Error e -> failwith ("Generators.spec: generated an invalid spec: " ^ e)

let action_of ~obj (s : Signature.t) : Action.t Gen.t =
  let open Gen in
  let* args = flatten_l (List.map (fun _ -> small_value) s.Signature.args) in
  let* rets = flatten_l (List.map (fun _ -> small_value) s.Signature.rets) in
  return (Action.make ~obj ~meth:s.Signature.meth ~args ~rets ())

let action_for_spec ~obj spec : Action.t Gen.t =
  let open Gen in
  let* s = oneofl (Spec.methods spec) in
  action_of ~obj s

(* ------------------------------------------------------------------ *)
(* Traces                                                              *)
(* ------------------------------------------------------------------ *)

(* A structured random trace: starts with [threads] forked from T0, then
   a sequence of events from live threads with well-bracketed locking.
   Calls draw dictionary actions whose return values are made consistent
   by replaying against real dictionary states (so the trace could have
   come from a linearizable execution). *)
let dict_trace ~threads ~objects ~len : Trace.t Gen.t =
  let open Gen in
  let* seed = int_range 0 0x3FFFFFF in
  return
    (let prng = Prng.make (Int64.of_int seed) in
     let trace = Trace.create () in
     let tids = Array.init threads (fun i -> Tid.of_int i) in
     for i = 1 to threads - 1 do
       Trace.append trace (Event.fork (Tid.of_int 0) tids.(i))
     done;
     let objs =
       Array.init objects (fun i ->
           ( Obj_id.make ~name:(Printf.sprintf "dictionary:o%d" i) i,
             Hashtbl.create 8 ))
     in
     let locks = Array.init 2 (fun i -> Lock_id.make i) in
     let held = Hashtbl.create 8 in
     (* lock idx -> tid *)
     let keys = [| Value.Int 0; Value.Int 1; Value.Str "k" |] in
     let vals = [| Value.Nil; Value.Int 1; Value.Int 2 |] in
     for _ = 1 to len do
       let tid = tids.(Prng.int prng threads) in
       let obj, state = objs.(Prng.int prng objects) in
       match Prng.int prng 10 with
       | 0 | 1 | 2 | 3 -> (
           (* put *)
           let k = keys.(Prng.int prng (Array.length keys)) in
           let v = vals.(Prng.int prng (Array.length vals)) in
           let p =
             match Hashtbl.find_opt state k with Some p -> p | None -> Value.Nil
           in
           if Value.is_nil v then Hashtbl.remove state k
           else Hashtbl.replace state k v;
           Trace.append trace
             (Event.call tid
                (Action.make ~obj ~meth:"put" ~args:[ k; v ] ~rets:[ p ] ())))
       | 4 | 5 | 6 -> (
           (* get *)
           let k = keys.(Prng.int prng (Array.length keys)) in
           let v =
             match Hashtbl.find_opt state k with Some v -> v | None -> Value.Nil
           in
           Trace.append trace
             (Event.call tid
                (Action.make ~obj ~meth:"get" ~args:[ k ] ~rets:[ v ] ())))
       | 7 ->
           (* size *)
           Trace.append trace
             (Event.call tid
                (Action.make ~obj ~meth:"size" ~args:[]
                   ~rets:[ Value.Int (Hashtbl.length state) ]
                   ()))
       | 8 ->
           (* read/write of a shared location *)
           let loc = Mem_loc.Global (Printf.sprintf "g%d" (Prng.int prng 3)) in
           if Prng.bool prng then Trace.append trace (Event.read tid loc)
           else Trace.append trace (Event.write tid loc)
       | _ -> (
           (* lock activity: acquire a free lock or release a held one *)
           let li = Prng.int prng (Array.length locks) in
           match Hashtbl.find_opt held li with
           | None ->
               Hashtbl.replace held li tid;
               Trace.append trace (Event.acquire tid locks.(li))
           | Some owner when Tid.equal owner tid ->
               Hashtbl.remove held li;
               Trace.append trace (Event.release tid locks.(li))
           | Some _ -> ())
     done;
     (* Release anything still held, then join everyone. *)
     Hashtbl.iter
       (fun li tid -> Trace.append trace (Event.release tid locks.(li)))
       held;
     for i = 1 to threads - 1 do
       Trace.append trace (Event.join (Tid.of_int 0) tids.(i))
     done;
     trace)

(* Raw low-level traces for the FastTrack/DJIT+ comparison: reads and
   writes on a few locations with random fork/join/lock structure. *)
let rw_trace ~threads ~len : Trace.t Gen.t =
  let open Gen in
  let* seed = int_range 0 0x3FFFFFF in
  return
    (let prng = Prng.make (Int64.of_int seed) in
     let trace = Trace.create () in
     let tids = Array.init threads (fun i -> Tid.of_int i) in
     for i = 1 to threads - 1 do
       Trace.append trace (Event.fork (Tid.of_int 0) tids.(i))
     done;
     let locks = Array.init 2 (fun i -> Lock_id.make i) in
     let held = Hashtbl.create 8 in
     let locs =
       Array.init 3 (fun i -> Mem_loc.Global (Printf.sprintf "x%d" i))
     in
     for _ = 1 to len do
       let tid = tids.(Prng.int prng threads) in
       match Prng.int prng 8 with
       | 0 | 1 | 2 ->
           Trace.append trace
             (Event.read tid locs.(Prng.int prng (Array.length locs)))
       | 3 | 4 | 5 ->
           Trace.append trace
             (Event.write tid locs.(Prng.int prng (Array.length locs)))
       | _ -> (
           let li = Prng.int prng (Array.length locks) in
           match Hashtbl.find_opt held li with
           | None ->
               Hashtbl.replace held li tid;
               Trace.append trace (Event.acquire tid locks.(li))
           | Some owner when Tid.equal owner tid ->
               Hashtbl.remove held li;
               Trace.append trace (Event.release tid locks.(li))
           | Some _ -> ())
     done;
     Hashtbl.iter
       (fun li tid -> Trace.append trace (Event.release tid locks.(li)))
       held;
     trace)
