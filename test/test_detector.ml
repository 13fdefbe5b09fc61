open Crd
module Gen = QCheck2.Gen

let qcheck ?(count = 300) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let dict = Stdspecs.dictionary ()
let dict_repr = Result.get_ok (Repr.of_spec dict)

let spec_for _ = Some dict
let repr_for _ = Some dict_repr

(* The detector, its races (what [on_action] returned, in trace order)
   and the indices of the events that closed one. *)
let run_rd2 ?(mode = `Constant) trace =
  let hb = Hb.create () in
  let d = Rd2.create ~mode ~collect:false ~repr_for () in
  let races = ref [] and events_with_race = ref [] in
  Trace.iter trace ~f:(fun index (e : Event.t) ->
      let vc = Hb.step hb e in
      match e.op with
      | Event.Call a -> (
          match Rd2.on_action d ~index e.tid a vc with
          | [] -> ()
          | rs ->
              races := List.rev_append rs !races;
              events_with_race := index :: !events_with_race)
      | _ -> ());
  (d, List.rev !races, List.rev !events_with_race)

let run_direct trace =
  let hb = Hb.create () in
  let d = Direct.create ~spec_for () in
  let events_with_race = ref [] in
  Trace.iter trace ~f:(fun index (e : Event.t) ->
      let vc = Hb.step hb e in
      match e.op with
      | Event.Call a ->
          if Direct.on_action d ~index e.tid a vc <> [] then
            events_with_race := index :: !events_with_race
      | _ -> ());
  (d, List.rev !events_with_race)

(* The worked example of Fig 3 / Section 5.3. *)
let fig3 () =
  (* Same content as examples/traces/fig3.trace. *)
  let src =
    "T0 fork T2\n\
     T0 fork T3\n\
     T3 call dictionary.put(\"a.com\", @1) / nil\n\
     T2 call dictionary.put(\"a.com\", @2) / @1\n\
     T0 join T2\n\
     T0 join T3\n\
     T0 call dictionary.size() / 1\n"
  in
  let trace = Result.get_ok (Trace_text.parse src) in
  let _, races, events = run_rd2 trace in
  Alcotest.(check (list int)) "race closed by a2 only" [ 3 ] events;
  Alcotest.(check int) "one race" 1 (List.length races);
  let r = List.hd races in
  Alcotest.(check string) "racing action" "dictionary.put(\"a.com\", @2)/@1"
    (Action.to_string r.Report.action)

(* Without the joinall, size() races with the resizing put (Section 2). *)
let fig3_no_join () =
  let src =
    "T0 fork T2\n\
     T0 fork T3\n\
     T3 call o.put(\"a.com\", @1) / nil\n\
     T0 call o.size() / 1\n"
  in
  let trace = Result.get_ok (Trace_text.parse src) in
  let _, _, events = run_rd2 trace in
  Alcotest.(check (list int)) "size races" [ 3 ] events

(* And the overwriting put does NOT race with size (Section 2: a2/a3). *)
let overwrite_vs_size () =
  let src =
    "T0 fork T2\n\
     T2 call o.put(\"a.com\", @2) / @1\n\
     T0 call o.size() / 1\n"
  in
  let trace = Result.get_ok (Trace_text.parse src) in
  let _, _, events = run_rd2 trace in
  Alcotest.(check (list int)) "no race" [] events

let ordered_no_race () =
  (* Same thread: never a race even when actions do not commute. *)
  let src =
    "T0 call o.put(1, 2) / nil\nT0 call o.put(1, 3) / 2\nT0 call o.size() / 1\n"
  in
  let trace = Result.get_ok (Trace_text.parse src) in
  let _, _, events = run_rd2 trace in
  Alcotest.(check (list int)) "no race" [] events

let lock_protection () =
  (* Two non-commuting puts protected by a lock: ordered, no race. *)
  let src =
    "T0 fork T1\n\
     T0 fork T2\n\
     T1 acquire l\n\
     T1 call o.put(1, 2) / nil\n\
     T1 release l\n\
     T2 acquire l\n\
     T2 call o.put(1, 3) / 2\n\
     T2 release l\n"
  in
  let trace = Result.get_ok (Trace_text.parse src) in
  let _, _, events = run_rd2 trace in
  Alcotest.(check (list int)) "lock orders the puts" [] events

let release_object () =
  let obj = Obj_id.make ~name:"o" 0 in
  let put tid =
    Event.call (Tid.of_int tid)
      (Action.make ~obj ~meth:"put"
         ~args:[ Value.Int 1; Value.Int tid ]
         ~rets:[ Value.Int 9 ] ())
  in
  let hb = Hb.create () in
  let d = Rd2.create ~repr_for () in
  let e0 = Event.fork Tid.main (Tid.of_int 1) in
  ignore (Hb.step hb e0);
  let step i (e : Event.t) =
    let vc = Hb.step hb e in
    match e.op with
    | Event.Call a -> Rd2.on_action d ~index:i e.tid a vc
    | _ -> []
  in
  ignore (step 1 (put 0));
  Alcotest.(check bool) "state exists" true (Rd2.active_points d obj > 0);
  Rd2.release_object d obj;
  Alcotest.(check int) "state dropped" 0 (Rd2.active_points d obj);
  (* After release, the previous action is forgotten: no race. *)
  Alcotest.(check int) "no race after release" 0 (List.length (step 2 (put 1)))

let unmonitored_objects_ignored () =
  let trace =
    Result.get_ok
      (Trace_text.parse "T0 fork T1\nT1 call o.put(1, 2) / nil\nT0 call o.put(1, 3) / nil\n")
  in
  let hb = Hb.create () in
  let d = Rd2.create ~repr_for:(fun _ -> None) () in
  let races = ref 0 in
  Trace.iter trace ~f:(fun index (e : Event.t) ->
      let vc = Hb.step hb e in
      match e.op with
      | Event.Call a -> races := !races + List.length (Rd2.on_action d ~index e.tid a vc)
      | _ -> ());
  Alcotest.(check int) "ignored" 0 !races;
  Alcotest.(check int) "no actions counted" 0 (Rd2.stats d).Rd2.actions

(* Reference RD2: Algorithm 1 verbatim, one full joined vector clock per
   active access point — the oracle the epoch-adaptive entries of
   [Rd2] must reproduce exactly. Reports are (index, point, conflicting
   point, prior tid) tuples. *)
let run_ref_rd2 trace =
  let hb = Hb.create () in
  let objects = Hashtbl.create 16 in
  let reports = ref [] in
  let state_of obj =
    match Hashtbl.find_opt objects (Obj_id.id obj) with
    | Some st -> st
    | None ->
        let st = Point.Tbl.create 16 in
        Hashtbl.add objects (Obj_id.id obj) st;
        st
  in
  Trace.iter trace ~f:(fun index (e : Event.t) ->
      let vc = Hb.step hb e in
      match e.op with
      | Event.Call a ->
          let st = state_of a.Action.obj in
          let points = Repr.eta dict_repr a in
          (* Phase 1: full-VC conflict checks. *)
          List.iter
            (fun pt ->
              List.iter
                (fun pt' ->
                  match Point.Tbl.find_opt st pt' with
                  | Some (c, ltid) when not (Vclock.leq c vc) ->
                      reports := (index, pt, pt', ltid) :: !reports
                  | _ -> ())
                (Repr.conflicts dict_repr pt))
            points;
          (* Phase 2: join the action's clock into every touched entry. *)
          List.iter
            (fun pt ->
              match Point.Tbl.find_opt st pt with
              | Some (c, _) ->
                  Vclock.join_into ~into:c vc;
                  Point.Tbl.replace st pt (c, e.tid)
              | None -> Point.Tbl.replace st pt (Vclock.copy vc, e.tid))
            points
      | _ -> ());
  List.rev !reports

(* The epoch-adaptive detector reports the exact same race set as the
   full-VC reference: same indices, same points, same prior thread. *)
let epoch_adaptive_exact =
  qcheck ~count:500 "epoch-adaptive Rd2 == full-VC reference"
    (Generators.dict_trace ~threads:4 ~objects:2 ~len:60) (fun trace ->
      let _, races, _ = run_rd2 ~mode:`Constant trace in
      let adaptive =
        List.map
          (fun (r : Report.t) ->
            ( r.Report.index,
              r.Report.point,
              r.Report.conflicting,
              Option.map fst r.Report.prior ))
          races
      in
      let desc p =
        match (p : Point.t) with
        | Point.Ds id -> Repr.shape_desc dict_repr id
        | Point.Keyed (id, v) ->
            Printf.sprintf "%s[%s]" (Repr.shape_desc dict_repr id)
              (Value.to_string v)
      in
      let reference =
        List.map
          (fun (index, pt, pt', ltid) -> (index, desc pt, desc pt', Some ltid))
          (run_ref_rd2 trace)
      in
      List.sort compare adaptive = List.sort compare reference)

(* A thread re-invoking at an unchanged clock with no interference hits
   the same-epoch fast path; the hit is counted and lookups are saved. *)
let same_epoch_fast_path () =
  let src =
    "T0 fork T1\n\
     T0 call o.size() / 0\n\
     T0 call o.size() / 0\n\
     T0 call o.size() / 0\n"
  in
  let trace = Result.get_ok (Trace_text.parse src) in
  let d, _, events = run_rd2 ~mode:`Constant trace in
  Alcotest.(check (list int)) "no races" [] events;
  let s = Rd2.stats d in
  Alcotest.(check int) "two same-epoch hits" 2 s.Rd2.same_epoch;
  (* Only the first size() pays its conflict lookups. *)
  Alcotest.(check bool) "lookups saved" true (s.Rd2.lookups < 3 * 2)

(* Theorem 5.1: RD2 (both modes) and the direct detector agree on the set
   of events at which a race is reported. *)
let equivalence =
  qcheck ~count:500 "Rd2 == Rd2-linear == Direct per event (Theorem 5.1)"
    (Generators.dict_trace ~threads:4 ~objects:2 ~len:60) (fun trace ->
      let _, _, constant = run_rd2 ~mode:`Constant trace in
      let _, _, linear = run_rd2 ~mode:`Linear trace in
      let _, direct = run_direct trace in
      constant = linear && constant = direct)

(* [Rd2.races] is the concatenation of [on_action]'s returns; created
   with [~collect:false], the detector keeps none of them and returns the
   same races. *)
let races_collect =
  qcheck ~count:100 "Rd2.races = on_action's returns; ~collect:false keeps none"
    (Generators.dict_trace ~threads:4 ~objects:2 ~len:60) (fun trace ->
      let run collect =
        let hb = Hb.create () in
        let d = Rd2.create ~collect ~repr_for () in
        let returned = ref [] in
        Trace.iter trace ~f:(fun index (e : Event.t) ->
            let vc = Hb.step hb e in
            match e.op with
            | Event.Call a ->
                returned := List.rev_append (Rd2.on_action d ~index e.tid a vc) !returned
            | _ -> ());
        (Rd2.races d, List.rev !returned)
      in
      let kept, returned = run true and none, returned' = run false in
      kept = returned && none = [] && returned' = returned)

(* The constant-mode lookup count per action is bounded by
   eta * max_conflicts, independent of history; the direct detector's
   grows linearly. *)
let lookup_bounds =
  qcheck ~count:100 "constant-mode lookups are O(1) per action"
    (Generators.dict_trace ~threads:4 ~objects:1 ~len:200) (fun trace ->
      let d, _, _ = run_rd2 ~mode:`Constant trace in
      let stats = Rd2.stats d in
      (* eta <= 2 points, each with <= 2 conflicts. *)
      stats.Rd2.actions = 0 || stats.Rd2.lookups <= 4 * stats.Rd2.actions)

let stats_monotone =
  qcheck ~count:50 "direct lookups grow quadratically-ish"
    (Generators.dict_trace ~threads:3 ~objects:1 ~len:100) (fun trace ->
      let d, _ = run_direct trace in
      let stats = Direct.stats d in
      let n = stats.Direct.actions in
      (* Exactly n*(n-1)/2 pairwise checks for a single object. *)
      stats.Direct.lookups = n * (n - 1) / 2)

(* ------------------------------------------------------------------ *)
(* The flat entry tables against the Point.Tbl detector                 *)
(* ------------------------------------------------------------------ *)

(* The detector before the compiled eta and the per-shape entry tables,
   kept verbatim as the oracle: one [Point.Tbl] of entries per object,
   points from [Repr.eta], candidates from [Repr.conflicts], a fresh
   description per race ([release_object] added since). *)
module Point_tbl_rd2 = struct
  type entry = {
    mutable ep_tid : Tid.t;
    mutable ep_clock : int;
    mutable evc : Vclock.t option;
    mutable last_tid : Tid.t;
    mutable last_action : Action.t;
  }

  type obj_state = {
    repr : Repr.t;
    active : entry Point.Tbl.t;
    mutable stamp : int;
    mutable lo_valid : bool;
    mutable lo_tid : Tid.t;
    mutable lo_clock : int;
    mutable lo_stamp : int;
    mutable lo_points : Point.t list;
  }

  type t = {
    mode : Rd2.mode;
    repr_for : Obj_id.t -> Repr.t option;
    objects : (int, obj_state option) Hashtbl.t;
    stats : Rd2.stats;
    mutable reports : Report.t list;
  }

  let create ~mode ~repr_for =
    {
      mode;
      repr_for;
      objects = Hashtbl.create 64;
      stats =
        { Rd2.actions = 0; lookups = 0; races = 0; same_epoch = 0; promotions = 0; deflations = 0 };
      reports = [];
    }

  let obj_state t (o : Obj_id.t) =
    let key = Obj_id.id o in
    match Hashtbl.find_opt t.objects key with
    | Some st -> st
    | None ->
        let st =
          Option.map
            (fun repr ->
              {
                repr;
                active = Point.Tbl.create 16;
                stamp = 0;
                lo_valid = false;
                lo_tid = Tid.main;
                lo_clock = 0;
                lo_stamp = 0;
                lo_points = [];
              })
            (t.repr_for o)
        in
        Hashtbl.add t.objects key st;
        st

  let release_object t o = Hashtbl.remove t.objects (Obj_id.id o)

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
                            report t ~index ~tid ~action ~repr:st.repr ~pt ~pt' ~entry
                            :: !found
                      | _ -> ())
                    (Repr.conflicts st.repr pt)
              | `Linear ->
                  Point.Tbl.iter
                    (fun pt' entry ->
                      t.stats.lookups <- t.stats.lookups + 1;
                      if Repr.conflict st.repr pt pt' && not (entry_leq entry vc) then
                        found :=
                          report t ~index ~tid ~action ~repr:st.repr ~pt ~pt' ~entry
                          :: !found)
                    st.active)
            points;
        let bump () = st.stamp <- st.stamp + 1 in
        List.iter
          (fun pt ->
            match Point.Tbl.find_opt st.active pt with
            | Some entry ->
                (match entry.evc with
                | None ->
                    if Tid.equal entry.ep_tid tid && entry.ep_clock = own then ()
                    else if entry.ep_clock <= Vclock.get vc entry.ep_tid then begin
                      entry.ep_tid <- tid;
                      entry.ep_clock <- own;
                      bump ()
                    end
                    else begin
                      let c = Vclock.bot () in
                      Vclock.set c entry.ep_tid entry.ep_clock;
                      Vclock.set c tid own;
                      entry.evc <- Some c;
                      t.stats.promotions <- t.stats.promotions + 1;
                      bump ()
                    end
                | Some c ->
                    if Vclock.get c tid = own then ()
                    else if Vclock.leq c vc then begin
                      entry.evc <- None;
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
                  { ep_tid = tid; ep_clock = own; evc = None; last_tid = tid; last_action = action };
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
end

(* Two slots of [link] share one shape ([link:a ~ link:b] after
   congruence replacement), so [link(x, x)] exercises eta's dedup. *)
let pair_spec =
  Result.get_ok
    (Spec_parser.parse_one
       "object pair {\n\
       \  method link(a, b);\n\
       \  method probe(x) / r;\n\
       \  commutes link(a1, b1) <> link(a2, b2)\n\
       \    when a1 != a2 && a1 != b2 && b1 != a2 && b1 != b2;\n\
       \  commutes link(a1, b1) <> probe(x2) / r2 when a1 != x2 && b1 != x2;\n\
       \  commutes probe(x1) / r1 <> probe(x2) / r2 when true;\n\
        }\n")

let mixed_specs =
  List.map
    (fun name -> Option.get (Stdspecs.find name))
    [ "dictionary"; "set"; "counter"; "register"; "fifo"; "bag" ]
  @ [ pair_spec ]

let mixed_repr_for =
  let reprs =
    List.map (fun spec -> (Spec.name spec, Result.get_ok (Repr.of_spec spec))) mixed_specs
  in
  fun o ->
    Option.map
      (fun spec -> List.assoc (Spec.name spec) reprs)
      (Stdspecs.spec_in mixed_specs o)

(* Random traces over the six built-in specifications and [pair]: four
   threads, one object per specification plus a second dictionary, one
   lock, and slot values from a domain that flips every beta bit of the
   specifications (nil, both booleans, two integers). One call in five
   repeats the thread's previous call (same-epoch hits), half the
   [link]s repeat their first argument (eta's dedup), and lock hand-offs
   order a thread after earlier concurrent touchers (promotion, then
   deflation). *)
let mixed_trace ~len : Trace.t Gen.t =
  let open Gen in
  let* seed = int_range 0 0x3FFFFFF in
  return
    (let prng = Prng.make (Int64.of_int seed) in
     let trace = Trace.create () in
     let threads = 4 in
     for i = 1 to threads - 1 do
       Trace.append trace (Event.fork Tid.main (Tid.of_int i))
     done;
     let objs =
       Array.of_list
         (List.mapi
            (fun i spec ->
              (Obj_id.make ~name:(Printf.sprintf "%s:o%d" (Spec.name spec) i) i, spec))
            (mixed_specs @ [ List.hd mixed_specs ]))
     in
     let values = [| Value.Nil; Value.Bool true; Value.Bool false; Value.Int 0; Value.Int 1 |] in
     let pick _ = values.(Prng.int prng (Array.length values)) in
     let last = Array.make threads None in
     let lock = Lock_id.make 0 in
     let holder = ref None in
     for _ = 1 to len do
       let t = Prng.int prng threads in
       let tid = Tid.of_int t in
       match (Prng.int prng 10, last.(t), !holder) with
       | (0 | 1), Some a, _ -> Trace.append trace (Event.call tid a)
       | 2, _, None ->
           holder := Some tid;
           Trace.append trace (Event.acquire tid lock)
       | 2, _, Some owner when Tid.equal owner tid ->
           holder := None;
           Trace.append trace (Event.release tid lock)
       | _ ->
           let obj, spec = objs.(Prng.int prng (Array.length objs)) in
           let methods = Spec.methods spec in
           let sg = List.nth methods (Prng.int prng (List.length methods)) in
           let args = List.map pick sg.Signature.args in
           let args =
             match args with
             | [ x; _ ] when String.equal sg.Signature.meth "link" && Prng.bool prng -> [ x; x ]
             | args -> args
           in
           let a = Action.make ~obj ~meth:sg.Signature.meth ~args ~rets:(List.map pick sg.Signature.rets) () in
           last.(t) <- Some a;
           Trace.append trace (Event.call tid a)
     done;
     Option.iter (fun tid -> Trace.append trace (Event.release tid lock)) !holder;
     for i = 1 to threads - 1 do
       Trace.append trace (Event.join Tid.main (Tid.of_int i))
     done;
     trace)

let report_fields (r : Report.t) =
  (r.Report.index, r.Report.tid, r.Report.action, r.Report.point, r.Report.conflicting, r.Report.prior)

let stats_fields (s : Rd2.stats) =
  (s.Rd2.actions, s.Rd2.lookups, s.Rd2.same_epoch, s.Rd2.promotions, s.Rd2.deflations, s.Rd2.races)

(* One step of an oracle run: an event, or the release of an object's
   state (in both detectors). *)
type step = Ev of Event.t | Drop of Obj_id.t

(* Runs the detector and the oracle side by side over [steps];
   [same_event] compares the races each closes at one event, and
   [observe] sees the detector after every call. Returns the detector,
   its races in trace order, the oracle and the verdict. *)
let against_oracle_steps ?(observe = fun _ _ -> ()) ~mode ~pool ~same_event steps =
  let hb = Hb.create () in
  let pool = if pool then Some (Vclock.Pool.create ()) else None in
  let d = Rd2.create ~mode ?pool ~collect:false ~repr_for:mixed_repr_for () in
  let o = Point_tbl_rd2.create ~mode ~repr_for:mixed_repr_for in
  let races = ref [] and ok = ref true in
  List.iteri
    (fun index step ->
      match step with
      | Drop obj ->
          Rd2.release_object d obj;
          Point_tbl_rd2.release_object o obj
      | Ev (e : Event.t) -> (
          let vc = Hb.step hb e in
          match e.op with
          | Event.Call a ->
              let rs = Rd2.on_action d ~index e.tid a vc in
              races := List.rev_append rs !races;
              let got = List.map report_fields rs in
              let want = List.map report_fields (Point_tbl_rd2.on_action o ~index e.tid a vc) in
              if not (same_event got want) then ok := false;
              observe d a
          | _ -> ()))
    steps;
  ( d,
    List.rev !races,
    o,
    !ok && stats_fields (Rd2.stats d) = stats_fields o.Point_tbl_rd2.stats )

let against_oracle ~mode ~pool ~same_event trace =
  against_oracle_steps ~mode ~pool ~same_event (List.map (fun e -> Ev e) (Trace.to_list trace))

(* Object ids of the wide generator: the dense table's ends, ids just
   past it, far above it and negative ones, which live in its spill. *)
let wide_ids = [| 0; 3; 65_535; 65_536; 1 lsl 40; -1; -65_537 |]

let dense_id id = id >= 0 && id < 65_536

(* Random steps over the same specifications, widened where the mixed
   generator is narrow: the objects take the ids of [wide_ids] (plus an
   unmonitored one in each table), half the calls go to two hot objects,
   one dense and one spilled, so their keyed points pile up, and slot
   values come from a wide domain — integers around 0 and past 1023,
   negative ones, strings, and references numerically equal to integers
   — mixed with a narrow one that keeps races coming. One step in forty
   releases an object's state, which later calls touch again. *)
let wide_steps ~len : step list Gen.t =
  let open Gen in
  let* seed = int_range 0 0x3FFFFFF in
  return
    (let prng = Prng.make (Int64.of_int seed) in
     let steps = ref [] in
     let add st = steps := st :: !steps in
     let threads = 4 in
     for i = 1 to threads - 1 do
       add (Ev (Event.fork Tid.main (Tid.of_int i)))
     done;
     let objs =
       Array.mapi
         (fun i id ->
           let spec = List.nth mixed_specs (i mod List.length mixed_specs) in
           (Obj_id.make ~name:(Printf.sprintf "%s:w%d" (Spec.name spec) i) id, Some spec))
         wide_ids
     in
     let objs =
       Array.append objs
         [| (Obj_id.make ~name:"ghost:a" 7, None); (Obj_id.make ~name:"ghost:b" (-7), None) |]
     in
     (* [objs.(0)] is a dense dictionary, [objs.(5)] a spilled one. *)
     let hot = [| 0; 5 |] in
     let narrow = [| Value.Nil; Value.Bool true; Value.Int 0; Value.Int 1023; Value.Ref 0; Value.Str "k" |] in
     let wide () =
       match Prng.int prng 4 with
       | 0 -> Value.Int (Prng.int prng 2100)
       | 1 -> Value.Int (-1 - Prng.int prng 50)
       | 2 -> Value.Ref (Prng.int prng 1100)
       | _ -> Value.Str (Printf.sprintf "s%d" (Prng.int prng 200))
     in
     let pick _ = if Prng.int prng 10 < 3 then narrow.(Prng.int prng (Array.length narrow)) else wide () in
     let last = Array.make threads None in
     let lock = Lock_id.make 0 in
     let holder = ref None in
     for _ = 1 to len do
       let t = Prng.int prng threads in
       let tid = Tid.of_int t in
       match (Prng.int prng 40, last.(t), !holder) with
       | 0, _, _ -> add (Drop (fst objs.(Prng.int prng (Array.length objs))))
       | (1 | 2 | 3 | 4), Some a, _ -> add (Ev (Event.call tid a))
       | (5 | 6 | 7), _, None ->
           holder := Some tid;
           add (Ev (Event.acquire tid lock))
       | (5 | 6 | 7), _, Some owner when Tid.equal owner tid ->
           holder := None;
           add (Ev (Event.release tid lock))
       | _ ->
           let obj, spec =
             if Prng.bool prng then objs.(hot.(Prng.int prng 2))
             else objs.(Prng.int prng (Array.length objs))
           in
           let spec = Option.value spec ~default:(List.hd mixed_specs) in
           let methods = Spec.methods spec in
           let sg = List.nth methods (Prng.int prng (List.length methods)) in
           let a =
             Action.make ~obj ~meth:sg.Signature.meth ~args:(List.map pick sg.Signature.args)
               ~rets:(List.map pick sg.Signature.rets) ()
           in
           last.(t) <- Some a;
           add (Ev (Event.call tid a))
     done;
     Option.iter (fun tid -> add (Ev (Event.release tid lock))) !holder;
     for i = 1 to threads - 1 do
       add (Ev (Event.join Tid.main (Tid.of_int i)))
     done;
     List.rev !steps)

let oracle_properties =
  let gen = Gen.pair (mixed_trace ~len:80) Gen.bool in
  let wide = Gen.pair (wide_steps ~len:300) Gen.bool in
  let multiset got want = List.sort compare got = List.sort compare want in
  [
    qcheck ~count:400 "Rd2 = Point.Tbl oracle: reports and stats (constant)" gen
      (fun (trace, pool) ->
        let _, races, o, ok = against_oracle ~mode:`Constant ~pool ~same_event:( = ) trace in
        ok
        && List.map report_fields races
           = List.map report_fields (List.rev o.Point_tbl_rd2.reports));
    qcheck ~count:400 "Rd2 = Point.Tbl oracle: races per event as a multiset (linear)" gen
      (fun (trace, pool) ->
        let _, _, _, ok = against_oracle ~mode:`Linear ~pool ~same_event:multiset trace in
        ok);
    qcheck ~count:200 "wide oracle (constant): ids, values, release" wide
      (fun (steps, pool) ->
        let _, races, o, ok = against_oracle_steps ~mode:`Constant ~pool ~same_event:( = ) steps in
        ok
        && List.map report_fields races
           = List.map report_fields (List.rev o.Point_tbl_rd2.reports));
    qcheck ~count:200 "wide oracle (linear): ids, values, release" wide
      (fun (steps, pool) ->
        let _, _, _, ok = against_oracle_steps ~mode:`Linear ~pool ~same_event:multiset steps in
        ok);
  ]

(* The oracle generators reach what they are meant to: every
   specification, a deduplicated [link], same-epoch hits, promotions,
   deflations and races; bucket doubling, the spill table and release
   then re-touch. *)
let oracle_generator_coverage () =
  let traces =
    Gen.generate ~rand:(Random.State.make [| 14 |]) ~n:100 (mixed_trace ~len:80)
  in
  let totals = ref [ 0; 0; 0; 0 ] and specs = Hashtbl.create 8 and dedups = ref 0 in
  let pair_repr = Result.get_ok (Repr.of_spec pair_spec) in
  List.iter
    (fun trace ->
      let d, _, _, _ = against_oracle ~mode:`Constant ~pool:false ~same_event:( = ) trace in
      let s = Rd2.stats d in
      totals :=
        List.map2 ( + ) !totals
          [ s.Rd2.same_epoch; s.Rd2.promotions; s.Rd2.deflations; s.Rd2.races ];
      Trace.iter trace ~f:(fun _ (e : Event.t) ->
          match e.op with
          | Event.Call a ->
              Option.iter
                (fun spec -> Hashtbl.replace specs (Spec.name spec) ())
                (Stdspecs.spec_in mixed_specs a.Action.obj);
              if
                String.equal a.Action.meth "link"
                && List.length (Repr.eta pair_repr a) < List.length a.Action.args
              then incr dedups
          | _ -> ()))
    traces;
  Alcotest.(check int) "all seven specifications" 7 (Hashtbl.length specs);
  Alcotest.(check bool) "link(x, x) deduplicated" true (!dedups > 0);
  List.iter2
    (fun what n -> Alcotest.(check bool) what true (n > 0))
    [ "same-epoch hits"; "promotions"; "deflations"; "races" ]
    !totals;
  (* The wide generator: keyed entries past 32 on one object (its bucket
     array, 8 long at first, doubled at least twice), live state for a
     spilled id, and an object touched again after its release. *)
  let wide = Gen.generate ~rand:(Random.State.make [| 18 |]) ~n:50 (wide_steps ~len:300) in
  let doubled = ref false and spilled = ref false and retouched = ref false in
  List.iter
    (fun steps ->
      let dropped = Hashtbl.create 8 in
      List.iter
        (function
          | Drop o -> Hashtbl.replace dropped (Obj_id.id o) ()
          | Ev { Event.op = Event.Call a; _ }
            when Hashtbl.mem dropped (Obj_id.id a.Action.obj)
                 && Option.is_some (mixed_repr_for a.Action.obj) ->
              retouched := true
          | Ev _ -> ())
        steps;
      let observe d (a : Action.t) =
        let o = a.Action.obj in
        let n = Rd2.active_points d o in
        Option.iter
          (fun repr -> if n > 32 + Repr.num_shapes repr then doubled := true)
          (mixed_repr_for o);
        if n > 0 && not (dense_id (Obj_id.id o)) then spilled := true
      in
      ignore (against_oracle_steps ~observe ~mode:`Constant ~pool:false ~same_event:( = ) steps))
    wide;
  Alcotest.(check bool) "bucket array doubled twice" true !doubled;
  Alcotest.(check bool) "spilled object ids" true !spilled;
  Alcotest.(check bool) "touched again after release" true !retouched

(* Minor-heap words one [Rd2.on_action] allocates, on average, in a
   steady state: one dictionary, keys 0..3, two threads taking turns
   under one lock (overwriting, removing and re-inserting puts, gets and
   sizes), so the actions are ordered, no race is reported and, after the
   warm-up, every point is already active. The events and their clocks
   are built before the measurement. Measured on this trace: 147.0 words
   per action before the compiled eta and the per-shape entry tables
   (eta lists, [Point.t] boxes, [Co] lists, hash tuples), 0.0 after. *)
let steady_state_allocation () =
  let obj = Obj_id.make ~name:"dictionary:o0" 0 in
  let lock = Lock_id.make 0 in
  let call tid meth args rets =
    Event.call tid (Action.make ~obj ~meth ~args ~rets ())
  in
  let key k = Value.Int k and v1 = Value.Int 10 and v2 = Value.Int 11 in
  let events =
    ref [ Event.fork Tid.main (Tid.of_int 1); Event.fork Tid.main (Tid.of_int 2) ]
  in
  let add e = events := e :: !events in
  for round = 0 to 1999 do
    let tid = Tid.of_int (1 + (round land 1)) and k = key (round land 3) in
    add (Event.acquire tid lock);
    add (call tid "put" [ k; v2 ] [ v1 ]);
    add (call tid "get" [ k ] [ v2 ]);
    add (call tid "put" [ k; Value.Nil ] [ v2 ]);
    add (call tid "put" [ k; v1 ] [ Value.Nil ]);
    add (call tid "size" [] [ Value.Int 4 ]);
    add (Event.release tid lock)
  done;
  let hb = Hb.create () in
  let calls =
    List.rev !events
    |> List.filter_map (fun (e : Event.t) ->
           ignore (Hb.step hb e);
           match e.op with
           | Event.Call a -> Some (e.tid, a, Hb.snapshot hb e.tid)
           | _ -> None)
    |> Array.of_list
  in
  let d = Rd2.create ~repr_for () in
  let run lo hi =
    for i = lo to hi - 1 do
      let tid, a, vc = calls.(i) in
      ignore (Rd2.on_action d ~index:i tid a vc)
    done
  in
  let warm = Array.length calls / 4 in
  run 0 warm;
  let before = Gc.minor_words () in
  run warm (Array.length calls);
  let words = Gc.minor_words () -. before in
  let per_action = words /. float_of_int (Array.length calls - warm) in
  Alcotest.(check int) "no races" 0 (Rd2.stats d).Rd2.races;
  if per_action > 1. then
    Alcotest.failf "Rd2.on_action allocates %.1f minor words per action" per_action

(* ------------------------------------------------------------------ *)
(* The race-line writer and fingerprints against their oracles          *)
(* ------------------------------------------------------------------ *)

(* The Format-based printers and the list-fold fingerprint the direct
   writer and the allocation-free loop replaced, kept as oracles: race
   lines must stay byte-identical and fingerprints bit-identical, or
   every stored race database entry is orphaned. *)
let oracle_action_pp ppf (t : Action.t) =
  let pp_vals = Fmt.(list ~sep:(any ", ") Test_value.oracle_pp) in
  Fmt.pf ppf "%a.%s(%a)" Obj_id.pp t.obj t.meth pp_vals t.args;
  match t.rets with
  | [] -> ()
  | [ r ] -> Fmt.pf ppf "/%a" Test_value.oracle_pp r
  | rs -> Fmt.pf ppf "/(%a)" pp_vals rs

let oracle_report_pp ppf (t : Report.t) =
  Fmt.pf ppf "commutativity race at event %d: %a: %a [%s conflicts with %s]"
    t.index Tid.pp t.tid oracle_action_pp t.action t.point t.conflicting;
  match t.prior with
  | None -> ()
  | Some (tid, a) ->
      Fmt.pf ppf " last touched by %a: %a" Tid.pp tid oracle_action_pp a

let oracle_fingerprint (t : Report.t) =
  let fnv_add h s =
    let h = ref h in
    let mix byte = h := Int64.mul (Int64.logxor !h (Int64.of_int byte)) 0x100000001b3L in
    String.iter (fun c -> mix (Char.code c)) s;
    mix 0;
    !h
  in
  let spec_of_obj name =
    match String.index_opt name ':' with
    | Some i -> String.sub name 0 i
    | None -> name
  in
  let prior_meth = match t.prior with Some (_, a) -> a.Action.meth | None -> "" in
  let side_a = (t.action.Action.meth, t.point) in
  let side_b = (prior_meth, t.conflicting) in
  let (m1, p1), (m2, p2) =
    if compare side_a side_b <= 0 then (side_a, side_b) else (side_b, side_a)
  in
  let name = Obj_id.name t.obj in
  List.fold_left fnv_add 0xcbf29ce484222325L
    [ spec_of_obj name; name; m1; p1; m2; p2 ]

(* Small pools so that equal methods and points (the symmetry
   tie-breaks) are common; names with zero, one and two ':'. *)
let gen_obj =
  Gen.map
    (fun (i, name) -> Obj_id.make ~name i)
    (Gen.pair (Gen.int_range 0 9)
       (Gen.oneofl [ "dictionary"; "dictionary:s0"; "set:a:b"; ""; ":x"; "c\xff" ]))

let gen_meth = Gen.oneofl [ "put"; "get"; "size"; ""; "a b" ]

let gen_point =
  Gen.oneof
    [
      Gen.oneofl [ "size:ds"; "put{v == p=false}:k[13]"; ""; "k[\"\\n\"]" ];
      Gen.string_size ~gen:Generators.byte (Gen.int_range 0 6);
    ]

let gen_action =
  let open Gen in
  let values = list_size (int_range 0 3) Generators.any_value_edges in
  let* obj = gen_obj and* meth = gen_meth and* args = values and* rets = values in
  return (Action.make ~obj ~meth ~args ~rets ())

let gen_report =
  let open Gen in
  let* index = oneof [ nat; oneofl Generators.edge_ints ]
  and* tid = int_range 0 70
  and* action = gen_action in
  let* point = gen_point and* conflicting = gen_point in
  let* prior =
    opt (pair (map Tid.of_int (int_range 0 70)) gen_action)
  in
  return { Report.index; obj = action.Action.obj; tid = Tid.of_int tid; action; point; conflicting; prior }

let hex = Printf.sprintf "%016Lx"

(* Fingerprints taken at the commit before the allocation-free loop. *)
let pinned_fingerprints () =
  let obj = Obj_id.make ~name:"dictionary:s0" 0 in
  let act ?(obj = obj) meth args rets = Action.make ~obj ~meth ~args ~rets () in
  let report ?(obj = obj) ~action ~point ~conflicting prior =
    { Report.index = 7; obj; tid = Tid.of_int 1; action; point; conflicting; prior }
  in
  let set = Obj_id.make ~name:"set" 1 and counter = Obj_id.make ~name:"counter:c:1" 2 in
  List.iter
    (fun (want, r) -> Alcotest.(check string) want want (Report.fingerprint_hex r))
    [
      ( "5280231090050e20",
        report
          ~action:(act "put" [ Value.Int 13; Value.Int 6 ] [ Value.Int 0 ])
          ~point:"put{v == p=false}:k[13]" ~conflicting:"put{v == p=false}:k[13]"
          (Some (Tid.of_int 2, act "put" [ Value.Int 13; Value.Int 0 ] [ Value.Nil ])) );
      ( "0e5b443d366f3e58",
        report ~obj:set
          ~action:(act ~obj:set "add" [ Value.Str "x" ] [ Value.Bool true ])
          ~point:"add:k[\"x\"]" ~conflicting:"contains:k[\"x\"]" None );
      ( "d7eb7289f3a89c15",
        report ~obj:counter
          ~action:(act ~obj:counter "inc" [] [ Value.Ref (-3) ])
          ~point:"inc:ds" ~conflicting:"get:ds"
          (Some (Tid.of_int 0, act ~obj:counter "inc" [] [])) );
    ];
  (* Fig 3's one race, as examples/traces/fig3.trace produces it. *)
  let trace =
    Result.get_ok
      (Trace_text.parse
         "T0 fork T2\nT0 fork T3\n\
          T3 call dictionary.put(\"a.com\", @1) / nil\n\
          T2 call dictionary.put(\"a.com\", @2) / @1\n")
  in
  let _, races, _ = run_rd2 trace in
  Alcotest.(check (list string))
    "fig3" [ "c412b742c025fe7b" ]
    (List.map Report.fingerprint_hex races)

let report_matches_oracle r =
  let want = Fmt.str "%a" oracle_report_pp r in
  let buf = Buffer.create 16 in
  Report.add_line buf r;
  Report.add_line buf r;
  String.equal (Fmt.str "%a" Report.pp r) want
  && String.equal (Buffer.contents buf) (want ^ "\n" ^ want ^ "\n")

(* Every edge integer as the event index, a thread id (where in range),
   and as [Int] and [Ref] arguments and returns of both actions. *)
let report_writer_edge_ints () =
  let obj = Obj_id.make ~name:"dictionary:s0" 3 in
  List.iter
    (fun i ->
      let vals = [ Value.Int i; Value.Ref i ] in
      let tid = Tid.of_int (if i >= 0 && i <= Tid.max_id then i else 0) in
      let action = Action.make ~obj ~meth:"put" ~args:vals ~rets:[ Value.Int i ] () in
      let prior = Action.make ~obj ~meth:"get" ~args:[ Value.Ref i ] ~rets:vals () in
      let r =
        { Report.index = i; obj; tid; action; point = "put:k[0]"; conflicting = "get:k[0]";
          prior = Some (tid, prior) }
      in
      if not (report_matches_oracle r) then
        Alcotest.failf "race line with %d does not match the Format oracle" i)
    Generators.edge_ints

let writer_oracles =
  [
    Alcotest.test_case "Report writer = Format oracle on edge integers" `Quick
      report_writer_edge_ints;
    qcheck ~count:1000 "Action writer = Format oracle" gen_action (fun a ->
        let want = Fmt.str "%a" oracle_action_pp a in
        let buf = Buffer.create 16 in
        Action.to_buffer buf a;
        String.equal (Action.to_string a) want
        && String.equal (Fmt.str "%a" Action.pp a) want
        && String.equal (Buffer.contents buf) want);
    qcheck ~count:1000 "Report writer = Format oracle" gen_report report_matches_oracle;
    qcheck ~count:1000 "fingerprint = list-fold oracle, bit for bit" gen_report
      (fun r -> Int64.equal (Report.fingerprint r) (oracle_fingerprint r));
    qcheck "distinct_fingerprints = sorted unique hex" (Gen.list_size (Gen.int_range 0 30) gen_report)
      (fun rs ->
        let want = List.sort_uniq String.compare (List.map (fun r -> hex (oracle_fingerprint r)) rs) in
        Array.to_list (Array.map hex (Report.distinct_fingerprints rs)) = want
        && Report.distinct rs = List.length want);
  ]

let suite =
  ( "detector",
    [
      Alcotest.test_case "Fig 3 example" `Quick fig3;
      Alcotest.test_case "Fig 3 without joinall" `Quick fig3_no_join;
      Alcotest.test_case "overwrite vs size commutes" `Quick overwrite_vs_size;
      Alcotest.test_case "program order suppresses races" `Quick ordered_no_race;
      Alcotest.test_case "lock protection" `Quick lock_protection;
      Alcotest.test_case "release_object" `Quick release_object;
      Alcotest.test_case "unmonitored objects ignored" `Quick
        unmonitored_objects_ignored;
      Alcotest.test_case "same-epoch fast path" `Quick same_epoch_fast_path;
      epoch_adaptive_exact;
      equivalence;
      races_collect;
      lookup_bounds;
      stats_monotone;
      Alcotest.test_case "pinned fingerprints" `Quick pinned_fingerprints;
      Alcotest.test_case "steady-state allocation" `Quick steady_state_allocation;
      Alcotest.test_case "oracle generator coverage" `Quick oracle_generator_coverage;
    ]
    @ oracle_properties
    @ writer_oracles )
