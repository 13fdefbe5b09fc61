(* Atomicity checking with access points (the generalization the paper
   proposes in Section 8: Velodrome-style conflict-serializability with
   library-level conflicts instead of reads and writes).

   A classic check-then-act counter over a dictionary:

       atomic { v = d.get("hits"); d.put("hits", v + 1) }

   Race detection flags the get/put pattern whenever two increments *may*
   overlap — even in runs where they happened back to back. The atomicity
   checker is sharper about the observed run: it reports a violation only
   when the transactions actually tangled (a cycle in the transactional
   happens-before graph), i.e. when an increment was truly lost.

   Run with:  dune exec examples/atomicity_demo.exe *)

open Crd

let increments = 6

let run_with_seed seed =
  let an =
    Analyzer.with_stdspecs
      ~config:
        {
          Analyzer.rd2 = `Constant;
          direct = false;
          fasttrack = false;
          djit = false;
          atomicity = true;
        }
      ()
  in
  let final = ref 0 in
  Sched.run ~seed ~sink:(Analyzer.step an) (fun () ->
      let d = Monitored.Dict.create ~name:"dictionary:counters" () in
      for _ = 1 to increments do
        ignore
          (Sched.fork (fun () ->
               Sched.atomic (fun () ->
                   let v = Monitored.Dict.get d (Value.Str "hits") in
                   let n = match v with Value.Int n -> n | _ -> 0 in
                   ignore
                     (Monitored.Dict.put d (Value.Str "hits") (Value.Int (n + 1))))))
      done;
      Sched.join_all ();
      (match Monitored.Dict.get d (Value.Str "hits") with
      | Value.Int n -> final := n
      | _ -> ()));
  (an, !final)

let () =
  Fmt.pr "%d threads each run: atomic { hits := hits + 1 }@.@." increments;
  Fmt.pr "%6s %12s %16s %22s@." "seed" "final hits" "commut. races"
    "atomicity violations";
  List.iter
    (fun seed ->
      let an, final = run_with_seed (Int64.of_int seed) in
      let races = List.length (Analyzer.rd2_races an) in
      let violations = List.length (Analyzer.atomicity_violations an) in
      Fmt.pr "%6d %12d %16d %22d%s@." seed final races violations
        (if final < increments && violations > 0 then
           "   <- lost updates, cycle detected"
         else if final = increments && violations = 0 then
           "   (serialized by chance)"
         else "");
      if violations > 0 then
        match Analyzer.atomicity_violations an with
        | v :: _ -> Fmt.pr "        %a@." Atomicity.pp_violation v
        | [] -> ())
    [ 1; 2; 3; 4; 11 ];
  Fmt.pr
    "@.Every seeded run has commutativity races (the increments are \
     unordered and do not@.commute), but only the runs whose transactions \
     actually interleaved report an@.atomicity violation — and those are \
     exactly the runs that lose updates.@."
