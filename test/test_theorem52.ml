(* Theorem 5.2: if a trace has no commutativity races w.r.t. a
   happens-before relation and a sound specification, then every trace
   admitting the same happens-before relation (a) ends in the same state
   and (b) is race-free.

   Executable check: take random dictionary traces, keep the race-free
   ones, and replay several random linear extensions of their
   happens-before order through the executable dictionary model — the
   permuted executions must all be defined (every action's recorded
   return value stays valid) and reach the same final state. As a sanity
   check on the test itself, racy traces must exhibit at least one
   reordering that diverges (different final state or undefined). *)

open Crd
module Gen = QCheck2.Gen

let dict_spec = Stdspecs.dictionary ()
let dict_repr = Result.get_ok (Repr.of_spec dict_spec)

(* Big-key dictionary model: keys/values as used by Generators.dict_trace. *)
let model =
  Models.dictionary
    ~keys:[ Value.Int 0; Value.Int 1; Value.Str "k" ]
    ~values:[ Value.Nil; Value.Int 1; Value.Int 2 ]
    ()

(* Collect the call events of one object with their clocks; answer
   whether the trace is race-free; return (actions, clocks). *)
let calls_with_clocks trace =
  let hb = Hb.create () in
  let rd2 = Rd2.create ~collect:false ~repr_for:(fun _ -> Some dict_repr) () in
  let calls = ref [] and race_free = ref true in
  Trace.iter trace ~f:(fun index (e : Event.t) ->
      let vc = Hb.step hb e in
      match e.op with
      | Event.Call a ->
          if Rd2.on_action rd2 ~index e.tid a vc <> [] then race_free := false;
          calls := (a, Vclock.copy vc, e.tid, index) :: !calls
      | _ -> ());
  (List.rev !calls, !race_free)

let apply_shape state (a : Action.t) =
  model.Model.apply state
    { Model.meth = a.Action.meth; args = a.Action.args; rets = a.Action.rets }

let replay actions =
  List.fold_left
    (fun st a -> match st with None -> None | Some s -> apply_shape s a)
    (Some model.Model.initial) actions

(* A random linear extension of the happens-before order (strict clock
   order plus program order, which vector clocks cannot see inside one
   segment): repeatedly remove a random minimal element. *)
let linear_extension prng calls =
  let precedes (_, vc', tid', i') (_, vc, tid, i) =
    (i' < i && Tid.equal tid' tid)
    || (Vclock.leq vc' vc && not (Vclock.leq vc vc'))
  in
  let remaining = ref calls in
  let out = ref [] in
  while !remaining <> [] do
    let minimal =
      List.filter
        (fun e ->
          not (List.exists (fun e' -> (not (e' == e)) && precedes e' e) !remaining))
        !remaining
    in
    let pick = List.nth minimal (Prng.int prng (List.length minimal)) in
    let action, _, _, _ = pick in
    out := action :: !out;
    remaining := List.filter (fun entry -> not (entry == pick)) !remaining
  done;
  List.rev !out

(* Restrict generated traces to one object so the model state is the
   whole shared state. *)
let trace_gen = Generators.dict_trace ~threads:3 ~objects:1 ~len:14

let race_free_deterministic =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:400
       ~name:"race-free traces are schedule-deterministic (Theorem 5.2)"
       (Gen.pair trace_gen (Gen.int_range 0 0xFFFF))
       (fun (trace, salt) ->
         let calls, race_free = calls_with_clocks trace in
         if not race_free then true (* vacuous for racy traces *)
         else begin
           let reference = replay (List.map (fun (a, _, _, _) -> a) calls) in
           reference <> None
           &&
           let prng = Prng.make (Int64.of_int salt) in
           List.for_all
             (fun _ ->
               let permuted = linear_extension prng calls in
               match (reference, replay permuted) with
               | Some a, Some b -> Model.state_equal a b
               | _ -> false)
             [ 1; 2; 3 ]
         end))

(* Sanity: the test has teeth — for the Fig 3 racy trace there IS a
   reordering with a different outcome. *)
let racy_trace_diverges () =
  let src =
    "T0 fork T2\n\
     T0 fork T3\n\
     T3 call dictionary.put(0, 1) / nil\n\
     T2 call dictionary.put(0, 2) / 1\n"
  in
  let trace = Result.get_ok (Trace_text.parse src) in
  let calls, race_free = calls_with_clocks trace in
  Alcotest.(check bool) "trace is racy" false race_free;
  (* Original order is defined; the swapped order is not (put(0,2)/1
     requires key 0 to hold 1 already). *)
  let actions = List.map (fun (a, _, _, _) -> a) calls in
  (match replay actions with
  | Some _ -> ()
  | None -> Alcotest.fail "original order must be defined");
  match replay (List.rev actions) with
  | None -> ()
  | Some _ -> Alcotest.fail "swapped order should be undefined"

let suite =
  ( "theorem-5.2",
    [
      Alcotest.test_case "racy trace diverges" `Quick racy_trace_diverges;
      race_free_deterministic;
    ] )
