(* Print the access-point representation, raw and optimized, of every
   specification file in the directory given as the first argument,
   every built-in specification and the first 300 [Generators.spec]
   draws under [Random.State.make [|2|]]. `dune runtest` pins the MD5 of
   the output (test/golden/translate-corpus.md5): a translation change
   that moves a shape id, a conflict, a keyed flag or a description
   fails it. *)

open Crd

let dump name spec =
  List.iter
    (fun optimize ->
      Printf.printf "== %s (%s)\n" name (if optimize then "optimized" else "raw");
      match Repr.of_spec ~optimize spec with
      | Ok r -> Fmt.pr "%a@." Repr.pp r
      | Error e -> Printf.printf "error: %s\n" e)
    [ false; true ]

let () =
  let dir = Sys.argv.(1) in
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".crd")
  |> List.sort String.compare
  |> List.iter (fun f ->
         match Spec_parser.parse_file (Filename.concat dir f) with
         | Ok specs -> List.iter (fun s -> dump (f ^ " " ^ Spec.name s) s) specs
         | Error e -> Printf.printf "== %s\nerror: %s\n" f e);
  List.iter (fun s -> dump ("built-in " ^ Spec.name s) s) (Stdspecs.all ());
  let rand = Random.State.make [| 2 |] in
  for i = 0 to 299 do
    dump (Printf.sprintf "draw %d" i) (QCheck2.Gen.generate1 ~rand Generators.spec)
  done
