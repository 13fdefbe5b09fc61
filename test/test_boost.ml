open Crd
module Boost = Crd_boost.Boost

let dict_repr = Result.get_ok (Repr.of_spec (Stdspecs.dictionary ()))

let bump mgr txn d k =
  let v = Boost.get txn d k in
  let n = match v with Value.Int n -> n | _ -> 0 in
  ignore (Boost.put txn d k (Value.Int (n + 1)));
  ignore mgr

(* Concurrent boosted increments never lose updates, for any schedule. *)
let no_lost_updates () =
  for seed = 1 to 10 do
    let final = ref 0 in
    Sched.run ~seed:(Int64.of_int seed) (fun () ->
        let mgr = Boost.create ~repr:dict_repr () in
        let d = Monitored.Dict.create ~name:"dictionary:d" () in
        for _ = 1 to 8 do
          ignore
            (Sched.fork (fun () ->
                 Boost.atomic mgr (fun txn -> bump mgr txn d (Value.Str "hits"))))
        done;
        Sched.join_all ();
        (match Monitored.Dict.raw_get d (Value.Str "hits") with
        | Value.Int n -> final := n
        | _ -> ()));
    Alcotest.(check int) (Printf.sprintf "seed %d: all updates kept" seed) 8 !final
  done

(* The emitted trace of a boosted execution is conflict-serializable: the
   atomicity checker finds no violations (contrast with the unboosted
   version of the same program, which does tangle). *)
let serializable_traces () =
  for seed = 1 to 6 do
    let an =
      Analyzer.with_stdspecs
        ~config:
          { Analyzer.rd2 = `Off; direct = false; fasttrack = false; djit = false; atomicity = true }
        ()
    in
    Sched.run ~seed:(Int64.of_int seed) ~sink:(Analyzer.step an) (fun () ->
        let mgr = Boost.create ~repr:dict_repr () in
        let d = Monitored.Dict.create ~name:"dictionary:d" () in
        for w = 0 to 5 do
          ignore
            (Sched.fork (fun () ->
                 Boost.atomic mgr (fun txn ->
                     bump mgr txn d (Value.Int (w mod 2));
                     ignore (Boost.size txn d))))
        done;
        Sched.join_all ());
    Alcotest.(check (list pass))
      (Printf.sprintf "seed %d: no atomicity violations" seed)
      [] (Analyzer.atomicity_violations an)
  done

(* Contended transactions abort and retry; disjoint ones do not. *)
let contention_aborts () =
  let aborts_for ~same_key =
    let mgr = ref None in
    Sched.run ~seed:7L (fun () ->
        let m = Boost.create ~repr:dict_repr () in
        mgr := Some m;
        let d = Monitored.Dict.create ~name:"dictionary:d" () in
        for w = 0 to 7 do
          let k = if same_key then Value.Int 0 else Value.Int w in
          ignore
            (Sched.fork (fun () ->
                 Boost.atomic m (fun txn -> bump m txn d k)))
        done;
        Sched.join_all ());
    (Boost.stats (Option.get !mgr)).Boost.aborts
  in
  Alcotest.(check bool) "same key aborts" true (aborts_for ~same_key:true > 0);
  Alcotest.(check int) "disjoint keys never abort" 0 (aborts_for ~same_key:false)

(* Reads are shared: many concurrent readers of the same key commit
   without aborting each other. *)
let shared_reads () =
  let mgr = ref None in
  Sched.run ~seed:3L (fun () ->
      let m = Boost.create ~repr:dict_repr () in
      mgr := Some m;
      let d = Monitored.Dict.create ~name:"dictionary:d" () in
      ignore (Monitored.Dict.put d (Value.Int 1) (Value.Int 42));
      for _ = 1 to 6 do
        ignore
          (Sched.fork (fun () ->
               Boost.atomic m (fun txn ->
                   Alcotest.(check bool) "read sees committed value" true
                     (Value.equal (Value.Int 42) (Boost.get txn d (Value.Int 1))))))
      done;
      Sched.join_all ());
  let s = Boost.stats (Option.get !mgr) in
  Alcotest.(check int) "no aborts among readers" 0 s.Boost.aborts;
  Alcotest.(check int) "all committed" 6 s.Boost.commits

(* A size() transaction excludes concurrent inserts but not overwrites —
   the Fig 7 conflict structure drives the abstract lock modes. *)
let size_lock_modes () =
  let mgr = ref None in
  let overwrite_aborts = ref (-1) in
  Sched.run ~seed:5L (fun () ->
      let m = Boost.create ~repr:dict_repr () in
      mgr := Some m;
      let d = Monitored.Dict.create ~name:"dictionary:d" () in
      ignore (Monitored.Dict.put d (Value.Int 1) (Value.Int 0));
      (* Long-running sizer holding the size point... *)
      ignore
        (Sched.fork (fun () ->
             Boost.atomic m (fun txn ->
                 ignore (Boost.size txn d);
                 for _ = 1 to 8 do
                   Sched.yield ()
                 done;
                 ignore (Boost.size txn d))));
      (* ...while another transaction overwrites an existing key: the
         overwrite touches only w:k, which does not conflict with size. *)
      ignore
        (Sched.fork (fun () ->
             Boost.atomic m (fun txn ->
                 ignore (Boost.put txn d (Value.Int 1) (Value.Int 9)))));
      Sched.join_all ();
      overwrite_aborts := (Boost.stats m).Boost.aborts);
  Alcotest.(check int) "overwrite does not conflict with size" 0 !overwrite_aborts

let buffered_semantics () =
  Sched.run (fun () ->
      let m = Boost.create ~repr:dict_repr () in
      let d = Monitored.Dict.create ~name:"dictionary:d" () in
      Boost.atomic m (fun txn ->
          ignore (Boost.put txn d (Value.Int 1) (Value.Str "x"));
          (* Our own write is visible inside the transaction... *)
          Alcotest.(check bool) "read own write" true
            (Value.equal (Value.Str "x") (Boost.get txn d (Value.Int 1)));
          (* ...and counted by size... *)
          Alcotest.(check int) "buffered size" 1 (Boost.size txn d);
          (* ...but not outside until commit. *)
          Alcotest.(check bool) "not committed yet" true
            (Value.is_nil (Monitored.Dict.raw_get d (Value.Int 1))));
      Alcotest.(check bool) "committed after atomic" true
        (Value.equal (Value.Str "x") (Monitored.Dict.raw_get d (Value.Int 1))))

(* The classic STM demonstration: concurrent transfers between accounts
   preserve the total balance under every schedule. *)
let transfers_conserve_total () =
  let accounts = 4 in
  let initial = 100 in
  for seed = 1 to 8 do
    let total = ref (-1) in
    Sched.run ~seed:(Int64.of_int seed) (fun () ->
        let mgr = Boost.create ~repr:dict_repr () in
        let d = Monitored.Dict.create ~name:"dictionary:accounts" () in
        for a = 0 to accounts - 1 do
          ignore (Monitored.Dict.put d (Value.Int a) (Value.Int initial))
        done;
        let prng = Prng.make (Int64.of_int (seed * 31)) in
        let transfers =
          List.init 12 (fun _ ->
              let from_a = Prng.int prng accounts in
              let to_a = (from_a + 1 + Prng.int prng (accounts - 1)) mod accounts in
              let amount = 1 + Prng.int prng 40 in
              (from_a, to_a, amount))
        in
        List.iter
          (fun (from_a, to_a, amount) ->
            ignore
              (Sched.fork (fun () ->
                   Boost.atomic mgr (fun txn ->
                       let bal a =
                         match Boost.get txn d (Value.Int a) with
                         | Value.Int n -> n
                         | _ -> 0
                       in
                       let f = bal from_a in
                       if f >= amount then begin
                         ignore
                           (Boost.put txn d (Value.Int from_a)
                              (Value.Int (f - amount)));
                         let t = bal to_a in
                         ignore
                           (Boost.put txn d (Value.Int to_a)
                              (Value.Int (t + amount)))
                       end))))
          transfers;
        Sched.join_all ();
        let sum = ref 0 in
        for a = 0 to accounts - 1 do
          match Monitored.Dict.raw_get d (Value.Int a) with
          | Value.Int n -> sum := !sum + n
          | _ -> ()
        done;
        total := !sum);
    Alcotest.(check int)
      (Printf.sprintf "seed %d: total conserved" seed)
      (accounts * initial) !total
  done

let suite =
  ( "boost",
    [
      Alcotest.test_case "transfers conserve total" `Quick
        transfers_conserve_total;
      Alcotest.test_case "no lost updates" `Quick no_lost_updates;
      Alcotest.test_case "serializable traces" `Quick serializable_traces;
      Alcotest.test_case "contention aborts" `Quick contention_aborts;
      Alcotest.test_case "shared reads" `Quick shared_reads;
      Alcotest.test_case "size lock modes" `Quick size_lock_modes;
      Alcotest.test_case "buffered semantics" `Quick buffered_semantics;
    ] )
