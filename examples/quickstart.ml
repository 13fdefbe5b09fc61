(* Quickstart: the running example of the paper (Fig 1 / Fig 3).

   A program concurrently establishes connections to a list of hosts and
   stores them in a shared dictionary. If the host list contains
   duplicates, two threads race to [put] a connection for the same key:
   the two puts do not commute (the loser's connection object leaks), and
   the analyzer reports a commutativity race.

   Run with:  dune exec examples/quickstart.exe *)

open Crd

let establish_connections ~hosts ~sink =
  Sched.run ~seed:42L ~sink (fun () ->
      (* An empty dictionary: every key initially maps to nil. The name
         prefix "dictionary:" selects the built-in Fig 6 specification. *)
      let o = Monitored.Dict.create ~name:"dictionary:connections" () in
      List.iteri
        (fun i host ->
          ignore
            (Sched.fork (fun () ->
                 (* createConnection(host) — an opaque reference. *)
                 let conn = Value.Ref (100 + i) in
                 ignore (Monitored.Dict.put o (Value.Str host) conn))))
        hosts;
      Sched.join_all ();
      Fmt.pr "%d connections established@." (Monitored.Dict.size o))

let () =
  (* 1. Attach the analyzer: RD2 with the built-in specifications. *)
  let analyzer = Analyzer.with_stdspecs () in

  (* 2. Run the program; every monitored operation streams into it. *)
  let hosts = [ "a.com"; "a.com"; "b.com" ] in
  establish_connections ~hosts ~sink:(Analyzer.step analyzer);

  (* 3. Inspect the verdict. *)
  let races = Analyzer.rd2_races analyzer in
  Fmt.pr "@.%d commutativity race(s) detected:@." (List.length races);
  List.iter (fun r -> Fmt.pr "  %a@." Report.pp r) races;

  Fmt.pr
    "@.The duplicate host means two threads invoked put(\"a.com\", _) \
     concurrently;@.those invocations do not commute (each returns the \
     other's connection in one@.of the two orders), so one freshly created \
     connection is silently lost.@.";

  (* A clean host list produces no races — the dictionary operations all
     commute (distinct keys) even though they run concurrently. *)
  let analyzer' = Analyzer.with_stdspecs () in
  establish_connections ~hosts:[ "a.com"; "b.com"; "c.com" ]
    ~sink:(Analyzer.step analyzer');
  Fmt.pr "@.With distinct hosts: %d race(s).@."
    (List.length (Analyzer.rd2_races analyzer'))
