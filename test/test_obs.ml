(* Unit tests for the Crd_obs observability layer: metric arithmetic,
   registry find-or-create semantics, the Prometheus text dump, and the
   clamped clock. All tests use private registries so they cannot
   interfere with the process-wide [Crd_obs.default] the server tests
   scrape. *)

module Obs = Crd_obs

let counter_arithmetic () =
  let r = Obs.Registry.create () in
  let c = Obs.Registry.counter r "c_total" in
  Obs.Counter.incr c;
  Obs.Counter.add c 41;
  Obs.Counter.add c (-100);
  Alcotest.(check int) "negative adds ignored" 42 (Obs.Counter.get c)

let gauge_high_water () =
  let r = Obs.Registry.create () in
  let g = Obs.Registry.gauge r "g" in
  Obs.Gauge.incr g;
  Obs.Gauge.incr g;
  Obs.Gauge.decr g;
  Alcotest.(check int) "incr/decr" 1 (Obs.Gauge.get g);
  Obs.Gauge.set_max g 7;
  Obs.Gauge.set_max g 3;
  Alcotest.(check int) "set_max keeps the high water" 7 (Obs.Gauge.get g)

let histogram_counts () =
  let r = Obs.Registry.create () in
  let h = Obs.Registry.histogram ~buckets:[| 0.1; 1.0 |] r "h_seconds" in
  List.iter (Obs.Histogram.observe h) [ 0.05; 0.5; 0.5; 5.0; -1.0 ];
  Alcotest.(check int) "count" 5 (Obs.Histogram.count h);
  (* -1.0 clamps to 0; sum = 0.05 + 0.5 + 0.5 + 5.0 *)
  Alcotest.(check bool)
    "sum" true
    (Float.abs (Obs.Histogram.sum h -. 6.05) < 1e-9);
  let dump = Obs.Registry.dump r in
  let has s = Sessions.contains dump s in
  Alcotest.(check bool) "le=0.1 bucket" true (has "h_seconds_bucket{le=\"0.1\"} 2");
  Alcotest.(check bool) "le=1 bucket" true (has "h_seconds_bucket{le=\"1\"} 4");
  Alcotest.(check bool) "+Inf bucket" true (has "h_seconds_bucket{le=\"+Inf\"} 5");
  Alcotest.(check bool) "count sample" true (has "h_seconds_count 5")

let registry_find_or_create () =
  let r = Obs.Registry.create () in
  let a = Obs.Registry.counter r "same" in
  let b = Obs.Registry.counter r "same" in
  Obs.Counter.incr a;
  Obs.Counter.incr b;
  Alcotest.(check int) "same underlying counter" 2 (Obs.Counter.get a);
  (match Obs.Registry.gauge r "same" with
  | (_ : Obs.Gauge.t) -> Alcotest.fail "kind clash not rejected"
  | exception Invalid_argument _ -> ());
  match Obs.Registry.histogram ~buckets:[| 2.0; 1.0 |] r "unsorted" with
  | (_ : Obs.Histogram.t) -> Alcotest.fail "unsorted buckets not rejected"
  | exception Invalid_argument _ -> ()

let dump_shape () =
  let r = Obs.Registry.create () in
  let c = Obs.Registry.counter ~help:"Things counted" r "b_total" in
  let g = Obs.Registry.gauge r "a" in
  Obs.Counter.add c 3;
  Obs.Gauge.set g 9;
  let dump = Obs.Registry.dump r in
  (* sorted by name, HELP/TYPE comments, plain samples *)
  let lines = String.split_on_char '\n' dump in
  Alcotest.(check bool)
    "gauge sample" true
    (List.mem "a 9" lines);
  Alcotest.(check bool)
    "counter sample" true
    (List.mem "b_total 3" lines);
  Alcotest.(check bool)
    "HELP line" true
    (List.mem "# HELP b_total Things counted" lines);
  Alcotest.(check bool)
    "TYPE line" true
    (List.mem "# TYPE b_total counter" lines);
  let idx s =
    let rec go i = function
      | [] -> Alcotest.failf "line %S missing from dump" s
      | l :: rest -> if String.equal l s then i else go (i + 1) rest
    in
    go 0 lines
  in
  Alcotest.(check bool) "sorted by name" true (idx "a 9" < idx "b_total 3")

let clock_never_steps_back () =
  let prev = ref (Obs.now_s ()) in
  for _ = 1 to 10_000 do
    let t = Obs.now_s () in
    if t < !prev then Alcotest.failf "clock stepped back: %f < %f" t !prev;
    prev := t
  done

let time_observes_on_raise () =
  let r = Obs.Registry.create () in
  let h = Obs.Registry.histogram r "t_seconds" in
  (match Obs.time h (fun () -> failwith "boom") with
  | () -> Alcotest.fail "exception swallowed"
  | exception Failure _ -> ());
  ignore (Obs.time h (fun () -> ()));
  Alcotest.(check int) "both runs observed" 2 (Obs.Histogram.count h)

let log_levels () =
  let ok s expect =
    match Obs.Log.level_of_string s with
    | Ok l -> Alcotest.(check bool) s true (l = expect)
    | Error e -> Alcotest.failf "%s rejected: %s" s e
  in
  ok "off" None;
  ok "none" None;
  ok "error" (Some Obs.Log.Error);
  ok "warn" (Some Obs.Log.Warn);
  ok "warning" (Some Obs.Log.Warn);
  ok "info" (Some Obs.Log.Info);
  ok "debug" (Some Obs.Log.Debug);
  (match Obs.Log.level_of_string "loud" with
  | Ok _ -> Alcotest.fail "bad level accepted"
  | Error _ -> ());
  Alcotest.(check bool) "off by default" false (Obs.Log.enabled Obs.Log.Error)

let suite =
  ( "obs",
    [
      Alcotest.test_case "counter arithmetic" `Quick counter_arithmetic;
      Alcotest.test_case "gauge high water" `Quick gauge_high_water;
      Alcotest.test_case "histogram buckets and sum" `Quick histogram_counts;
      Alcotest.test_case "registry find-or-create" `Quick
        registry_find_or_create;
      Alcotest.test_case "dump shape" `Quick dump_shape;
      Alcotest.test_case "clock never steps back" `Quick clock_never_steps_back;
      Alcotest.test_case "time observes on raise" `Quick time_observes_on_raise;
      Alcotest.test_case "log levels" `Quick log_levels;
    ] )
