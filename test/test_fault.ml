(* Crd_fault — the deterministic fault-injection registry. Policies are
   pure functions of (seed, point name, hit index), so every test here
   can assert exact injection sequences, not just rates. *)

module F = Crd_fault

(* Each test configures the global registry, so every test must leave
   it clean for the rest of the suite. *)
let fire_seq p n = List.init n (fun _ -> F.fire p)

let policy_semantics () =
  Sessions.with_faults "a=once,b=nth:3,c=every:2,d=off" (fun () ->
      Alcotest.(check (list bool))
        "once fires exactly the first hit"
        [ true; false; false; false ]
        (fire_seq (F.point "a") 4);
      Alcotest.(check (list bool))
        "nth:3 fires exactly the third hit"
        [ false; false; true; false ]
        (fire_seq (F.point "b") 4);
      Alcotest.(check (list bool))
        "every:2 fires every second hit"
        [ false; true; false; true ]
        (fire_seq (F.point "c") 4);
      Alcotest.(check (list bool))
        "off never fires"
        [ false; false; false ]
        (fire_seq (F.point "d") 3);
      Alcotest.(check int) "hits counted" 4 (F.hits (F.point "a"));
      Alcotest.(check int) "injections counted" 1
        (F.injected_count (F.point "a")))

let off_points_do_not_count () =
  F.reset ();
  let p = F.point "untouched" in
  Alcotest.(check bool) "off point never fires" false (F.fire p);
  Alcotest.(check int) "off point counts no hits" 0 (F.hits p)

let probability_deterministic () =
  let run () =
    Sessions.with_faults "seed=42,flaky=p:0.3" (fun () -> fire_seq (F.point "flaky") 64)
  in
  let a = run () in
  let b = run () in
  Alcotest.(check (list bool)) "same seed, same sequence" a b;
  let injected = List.length (List.filter Fun.id a) in
  Alcotest.(check bool)
    (Printf.sprintf "p=0.3 over 64 hits injects a plausible count (%d)"
       injected)
    true
    (injected > 5 && injected < 40);
  let c =
    Sessions.with_faults "seed=43,flaky=p:0.3" (fun () -> fire_seq (F.point "flaky") 64)
  in
  Alcotest.(check bool) "different seed, different sequence" true (a <> c)

let decisions_independent_of_interleaving () =
  (* The decision for hit n of a point must not depend on how hits of
     *other* points interleave: fire "x" alone, then fire it again with
     "y" traffic mixed in — identical sequence. *)
  let solo =
    Sessions.with_faults "seed=7,x=p:0.5,y=p:0.5" (fun () -> fire_seq (F.point "x") 32)
  in
  let mixed =
    Sessions.with_faults "seed=7,x=p:0.5,y=p:0.5" (fun () ->
        List.init 32 (fun _ ->
            ignore (F.fire (F.point "y"));
            let r = F.fire (F.point "x") in
            ignore (F.fire (F.point "y"));
            r))
  in
  Alcotest.(check (list bool)) "x's stream unaffected by y's hits" solo mixed

let spec_parsing () =
  let ok s = match F.configure s with Ok () -> () | Error e -> Alcotest.failf "%S rejected: %s" s e in
  let rejected s =
    match F.configure s with
    | Ok () -> Alcotest.failf "%S accepted" s
    | Error _ -> ()
  in
  Fun.protect ~finally:F.reset (fun () ->
      ok "";
      ok "seed=9";
      ok " a=once , b=p:0.25 ";
      ok "a=nth:12,b=every:4,c=off";
      Alcotest.(check int64) "seed applied" 12L
        (F.configure "seed=12,z=once" |> Result.get_ok |> fun () -> F.seed ());
      rejected "nonsense";
      rejected "a=p:2.0";
      rejected "a=p:x";
      rejected "a=nth:0";
      rejected "a=every:0";
      rejected "a=maybe";
      rejected "bad name=once";
      rejected "seed=notanint";
      (* a bad spec must not clobber the previous configuration *)
      ok "seed=5,keep=once";
      rejected "keep=banana";
      Alcotest.(check int64) "failed configure left seed alone" 5L (F.seed ());
      Alcotest.(check bool) "failed configure left policy alone" true
        (F.policy (F.point "keep") = F.Once))

let inject_raises () =
  Sessions.with_faults "boom=nth:2" (fun () ->
      let p = F.point "boom" in
      F.inject p;
      (match F.inject p with
      | () -> Alcotest.fail "second hit did not raise"
      | exception F.Injected name ->
          Alcotest.(check string) "carries the point name" "boom" name);
      F.inject p)

let metrics_move () =
  let total name =
    String.split_on_char '\n' (Crd_obs.dump ())
    |> List.find_map (fun l ->
           match String.index_opt l ' ' with
           | Some i when String.sub l 0 i = name ->
               int_of_string_opt (String.sub l (i + 1) (String.length l - i - 1))
           | _ -> None)
    |> Option.value ~default:0
  in
  let before = total "fault_injected_total" in
  Sessions.with_faults "metered=every:1" (fun () ->
      ignore (fire_seq (F.point "metered") 5);
      Alcotest.(check int) "fault_injected_total moved" (before + 5)
        (total "fault_injected_total");
      Alcotest.(check bool) "per-point counter exposed" true
        (total "fault_injected_metered_total" >= 5))

let configure_env () =
  Fun.protect
    ~finally:(fun () ->
      Unix.putenv "CRD_FAULTS" "";
      F.reset ())
    (fun () ->
      Unix.putenv "CRD_FAULTS" "envpt=once";
      (match F.configure_env () with
      | Ok () -> ()
      | Error e -> Alcotest.failf "configure_env: %s" e);
      Alcotest.(check bool) "env policy applied" true
        (F.policy (F.point "envpt") = F.Once);
      Alcotest.(check bool) "registry active" true (F.active ());
      Unix.putenv "CRD_FAULTS" "envpt=p:9";
      match F.configure_env () with
      | Ok () -> Alcotest.fail "bad env spec accepted"
      | Error _ -> ())

let summary_lists_points () =
  Sessions.with_faults "s1=once,s2=nth:2" (fun () ->
      ignore (fire_seq (F.point "s1") 3);
      match
        List.filter (fun (n, _, _, _) -> n = "s1" || n = "s2") (F.summary ())
      with
      | [ ("s1", F.Once, 3, 1); ("s2", F.Nth 2, 0, 0) ] -> ()
      | other ->
          Alcotest.failf "unexpected summary (%d entries)" (List.length other))

let bad_point_names_rejected () =
  List.iter
    (fun n ->
      match F.point n with
      | _ -> Alcotest.failf "point %S accepted" n
      | exception Invalid_argument _ -> ())
    [ ""; "has space"; "has-dash"; "has:colon" ]

let suite =
  ( "fault",
    [
      Alcotest.test_case "policy semantics" `Quick policy_semantics;
      Alcotest.test_case "off points do not count" `Quick off_points_do_not_count;
      Alcotest.test_case "probability deterministic" `Quick
        probability_deterministic;
      Alcotest.test_case "decisions independent of interleaving" `Quick
        decisions_independent_of_interleaving;
      Alcotest.test_case "spec parsing" `Quick spec_parsing;
      Alcotest.test_case "inject raises" `Quick inject_raises;
      Alcotest.test_case "metrics move" `Quick metrics_move;
      Alcotest.test_case "configure from CRD_FAULTS" `Quick configure_env;
      Alcotest.test_case "summary lists points" `Quick summary_lists_points;
      Alcotest.test_case "bad point names rejected" `Quick
        bad_point_names_rejected;
    ] )
