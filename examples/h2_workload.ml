(* The H2 MVStore scenario: the two harmful races of Section 7.

   Worker threads run SQL traffic against the store while a background
   thread performs maintenance. Both code paths account freed page space
   with an unsynchronized read-modify-write on the [freedPageSpace] map
   (race #1, fixed upstream after the paper's report), and both populate
   chunk metadata with a check-then-act on the [chunks] map (race #2,
   duplicated work).

   This example also demonstrates that race #1 is *harmful*: it compares
   the bytes actually recorded in [freedPageSpace] against the bytes that
   were really freed — lost updates make the store's accounting drift.

   Run with:  dune exec examples/h2_workload.exe *)

open Crd
module W = Crd_workloads

let () =
  let analyzer = Analyzer.with_stdspecs () in
  let store = W.Mvstore.create () in
  let committed = ref 0 in
  Sched.run ~seed:7L ~sink:(Analyzer.step analyzer) (fun () ->
      (match W.Mvstore.exec_sql store "CREATE TABLE accounts (id, balance)" with
      | Ok _ -> ()
      | Error e -> failwith e);
      (* Four writers inserting and committing concurrently. *)
      for w = 0 to 3 do
        ignore
          (Sched.fork (fun () ->
               for i = 1 to 12 do
                 (match
                    W.Mvstore.exec_sql store
                      (Printf.sprintf "INSERT INTO accounts VALUES (%d, %d)"
                         ((w * 100) + i)
                         (i * 10))
                  with
                 | Ok _ -> ()
                 | Error e -> failwith e);
                 if i mod 3 = 0 then begin
                   W.Mvstore.commit store;
                   incr committed
                 end
               done))
      done;
      (* Background compaction, as in H2's MVStore. *)
      ignore
        (Sched.fork (fun () ->
             for _ = 1 to 10 do
               W.Mvstore.maintenance_step store
             done));
      Sched.join_all ());

  Fmt.pr "%a@." Analyzer.pp_summary analyzer;

  (* Group the commutativity races by object — the analyzer pinpoints
     exactly the two maps the paper reports. *)
  let by_obj = Hashtbl.create 4 in
  List.iter
    (fun (r : Report.t) ->
      let k = Obj_id.name r.obj in
      Hashtbl.replace by_obj k
        (1 + Option.value ~default:0 (Hashtbl.find_opt by_obj k)))
    (Analyzer.rd2_races analyzer);
  Fmt.pr "@.Commutativity races by object:@.";
  Hashtbl.iter (fun k n -> Fmt.pr "  %-32s %d@." k n) by_obj;

  (* Show the harm: every commit frees 64 bytes and every maintenance
     step 16, but the unsynchronized read-modify-write loses updates. *)
  let recorded = ref 0 in
  Sched.run (fun () ->
      for c = 0 to 31 do
        match Monitored.Dict.get (W.Mvstore.freed_page_space store) (Value.Int c) with
        | Value.Int n -> recorded := !recorded + n
        | _ -> ()
      done);
  let expected = (!committed * 64) + (10 * 16) in
  Fmt.pr
    "@.freedPageSpace accounting: %d bytes recorded, %d bytes actually \
     freed%s@."
    !recorded expected
    (if !recorded < expected then
       Printf.sprintf " — %d bytes lost to the race!" (expected - !recorded)
     else "")
