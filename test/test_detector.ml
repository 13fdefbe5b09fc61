open Crd
module Gen = QCheck2.Gen

let qcheck ?(count = 300) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let dict = Stdspecs.dictionary ()
let dict_repr = Result.get_ok (Repr.of_spec dict)

let spec_for _ = Some dict
let repr_for _ = Some dict_repr

let run_rd2 ?(mode = `Constant) trace =
  let hb = Hb.create () in
  let d = Rd2.create ~mode ~repr_for () in
  let events_with_race = ref [] in
  Trace.iter trace ~f:(fun index (e : Event.t) ->
      let vc = Hb.step hb e in
      match e.op with
      | Event.Call a ->
          if Rd2.on_action d ~index e.tid a vc <> [] then
            events_with_race := index :: !events_with_race
      | _ -> ());
  (d, List.rev !events_with_race)

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
  let d, events = run_rd2 trace in
  Alcotest.(check (list int)) "race closed by a2 only" [ 3 ] events;
  let races = Rd2.races d in
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
  let _, events = run_rd2 trace in
  Alcotest.(check (list int)) "size races" [ 3 ] events

(* And the overwriting put does NOT race with size (Section 2: a2/a3). *)
let overwrite_vs_size () =
  let src =
    "T0 fork T2\n\
     T2 call o.put(\"a.com\", @2) / @1\n\
     T0 call o.size() / 1\n"
  in
  let trace = Result.get_ok (Trace_text.parse src) in
  let _, events = run_rd2 trace in
  Alcotest.(check (list int)) "no race" [] events

let ordered_no_race () =
  (* Same thread: never a race even when actions do not commute. *)
  let src =
    "T0 call o.put(1, 2) / nil\nT0 call o.put(1, 3) / 2\nT0 call o.size() / 1\n"
  in
  let trace = Result.get_ok (Trace_text.parse src) in
  let _, events = run_rd2 trace in
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
  let _, events = run_rd2 trace in
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
      let d, _ = run_rd2 ~mode:`Constant trace in
      let adaptive =
        List.map
          (fun (r : Report.t) ->
            ( r.Report.index,
              r.Report.point,
              r.Report.conflicting,
              Option.map fst r.Report.prior ))
          (Rd2.races d)
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
  let d, events = run_rd2 ~mode:`Constant trace in
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
      let _, constant = run_rd2 ~mode:`Constant trace in
      let _, linear = run_rd2 ~mode:`Linear trace in
      let _, direct = run_direct trace in
      constant = linear && constant = direct)

(* The constant-mode lookup count per action is bounded by
   eta * max_conflicts, independent of history; the direct detector's
   grows linearly. *)
let lookup_bounds =
  qcheck ~count:100 "constant-mode lookups are O(1) per action"
    (Generators.dict_trace ~threads:4 ~objects:1 ~len:200) (fun trace ->
      let d, _ = run_rd2 ~mode:`Constant trace in
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
  let values = list_size (int_range 0 3) Generators.any_value in
  let* obj = gen_obj and* meth = gen_meth and* args = values and* rets = values in
  return (Action.make ~obj ~meth ~args ~rets ())

let gen_report =
  let open Gen in
  let* index = nat and* tid = int_range 0 70 and* action = gen_action in
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
  let d, _ = run_rd2 trace in
  Alcotest.(check (list string))
    "fig3" [ "c412b742c025fe7b" ]
    (List.map Report.fingerprint_hex (Rd2.races d))

let writer_oracles =
  [
    qcheck ~count:1000 "Action writer = Format oracle" gen_action (fun a ->
        let want = Fmt.str "%a" oracle_action_pp a in
        let buf = Buffer.create 16 in
        Action.to_buffer buf a;
        String.equal (Action.to_string a) want
        && String.equal (Fmt.str "%a" Action.pp a) want
        && String.equal (Buffer.contents buf) want);
    qcheck ~count:1000 "Report writer = Format oracle" gen_report (fun r ->
        let want = Fmt.str "%a" oracle_report_pp r in
        let buf = Buffer.create 16 in
        Report.add_line buf r;
        Report.add_line buf r;
        String.equal (Fmt.str "%a" Report.pp r) want
        && String.equal (Buffer.contents buf) (want ^ "\n" ^ want ^ "\n"));
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
      lookup_bounds;
      stats_monotone;
      Alcotest.test_case "pinned fingerprints" `Quick pinned_fingerprints;
    ]
    @ writer_oracles )
