(* Bringing your own object: write a commutativity specification in the
   DSL, translate it to access points, and analyze a hand-built trace —
   no scheduler involved.

   The object is a bank-account-style "vault": deposits commute with each
   other, withdrawals commute when they touch different owners, and
   balance checks conflict with everything that moves money for the same
   owner.

   Run with:  dune exec examples/custom_spec.exe *)

open Crd

let vault_spec_src =
  {|
object vault {
  method deposit(owner, amount);
  method withdraw(owner, amount) / ok;
  method balance(owner) / b;

  // Deposits always commute: addition is commutative.
  commutes deposit(o1, a1) <> deposit(o2, a2) when true;

  // A withdrawal can fail (insufficient funds), so it only commutes
  // with deposits for *other* owners.
  commutes deposit(o1, a1) <> withdraw(o2, a2) / ok2 when o1 != o2;

  // Balance reads conflict with any money movement for the same owner.
  commutes deposit(o1, a1) <> balance(o2) / b2 when o1 != o2;
  commutes withdraw(o1, a1) / ok1 <> withdraw(o2, a2) / ok2 when o1 != o2;
  commutes withdraw(o1, a1) / ok1 <> balance(o2) / b2 when o1 != o2;
  commutes balance(o1) / b1 <> balance(o2) / b2 when true;
}
|}

let () =
  (* 1. Parse and validate the specification (must be in ECL). *)
  let spec =
    match Spec_parser.parse_one vault_spec_src with
    | Ok s -> s
    | Error e -> failwith ("spec error: " ^ e)
  in
  assert (Spec.is_ecl spec);

  (* 2. Translate it and look at the representation: every access point
     conflicts with a bounded number of others (Theorem 6.6). *)
  let repr =
    match Repr.of_spec spec with Ok r -> r | Error e -> failwith e
  in
  Fmt.pr "%a@.@." Repr.pp repr;

  (* 3. Build a trace by hand and check it. Two tellers serve different
     customers (fine), then both touch alice (a race). *)
  let vault = Obj_id.make ~name:"vault" 0 in
  let act meth args rets = Action.make ~obj:vault ~meth ~args ~rets () in
  let t0 = Tid.of_int 0 and t1 = Tid.of_int 1 and t2 = Tid.of_int 2 in
  let owner s = Value.Str s in
  let trace =
    Trace.of_list
      [
        Event.fork t0 t1;
        Event.fork t0 t2;
        Event.call t1 (act "deposit" [ owner "alice"; Value.Int 100 ] []);
        Event.call t2 (act "deposit" [ owner "bob"; Value.Int 50 ] []);
        Event.call t2 (act "withdraw" [ owner "bob"; Value.Int 20 ] [ Value.Bool true ]);
        (* The race: t2 checks alice's balance while t1 deposits. *)
        Event.call t2 (act "balance" [ owner "alice" ] [ Value.Int 100 ]);
        Event.join t0 t1;
        Event.join t0 t2;
        Event.call t0 (act "balance" [ owner "alice" ] [ Value.Int 100 ]);
      ]
  in
  let analyzer =
    match
      Analyzer.create
        ~config:{ Analyzer.rd2 = `Constant; direct = true; fasttrack = false; djit = false; atomicity = false }
        ~spec_for:(fun o -> if Obj_id.equal o vault then Some spec else None)
        ()
    with
    | Ok a -> a
    | Error e -> failwith e
  in
  Analyzer.run_trace analyzer trace;
  Fmt.pr "%a@." Analyzer.pp_summary analyzer;
  List.iter (fun r -> Fmt.pr "  %a@." Report.pp r) (Analyzer.rd2_races analyzer);

  (* The naive detector agrees (Theorem 5.1) but pays a pairwise check
     against every previous action instead of O(1) per access point. *)
  let rd2 = Option.get (Analyzer.rd2_stats analyzer) in
  let direct = Option.get (Analyzer.finish analyzer).direct_stats in
  Fmt.pr "@.phase-1 lookups — rd2: %d, direct: %d@." rd2.Rd2.lookups
    direct.Direct.lookups
