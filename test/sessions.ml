(* Helpers shared by the end-to-end tests: temporary paths, in-process
   servers, fault windows, metric scrapes, the rd2 binary, and the
   offline reference a session's races are held to. *)

open Crd
module Server = Crd_server.Server
module Client = Crd_server.Client
module W = Crd_workloads

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

let fresh_count = ref 0

(* A path under the temp directory that no earlier call returned. *)
let fresh_path tag =
  incr fresh_count;
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "%s-%d-%d" tag (Unix.getpid ()) !fresh_count)

let rec rm_rf p =
  if Sys.is_directory p then begin
    Array.iter (fun e -> rm_rf (Filename.concat p e)) (Sys.readdir p);
    Unix.rmdir p
  end
  else Sys.remove p

(* A new, empty directory. *)
let fresh_dir tag =
  let dir = fresh_path tag in
  if Sys.file_exists dir then rm_rf dir;
  Unix.mkdir dir 0o755;
  dir

let fresh_addr () = Server.Unix_sock (fresh_path "crd-test" ^ ".sock")

let sock_path = function
  | Server.Unix_sock p -> p
  | Server.Tcp _ -> invalid_arg "Sessions.sock_path: not a unix socket"

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

let with_server ?(f_config = Fun.id) k =
  let addr = fresh_addr () in
  let config = f_config (Server.default_config ~addr) in
  match Server.start config with
  | Error e -> Alcotest.failf "server start: %s" e
  | Ok server ->
      Fun.protect
        ~finally:(fun () -> ignore (Server.stop server))
        (fun () -> k ~addr ~server)

let with_faults spec k =
  (match Crd_fault.configure spec with
  | Ok () -> ()
  | Error e -> Alcotest.failf "configure %S: %s" spec e);
  Fun.protect ~finally:Crd_fault.reset k

let poll ?(tries = 400) ?(interval = 0.025) msg cond =
  let rec go n =
    if cond () then ()
    else if n = 0 then Alcotest.fail msg
    else begin
      Unix.sleepf interval;
      go (n - 1)
    end
  in
  go tries

let metric_value dump name =
  String.split_on_char '\n' dump
  |> List.find_map (fun l ->
         match String.index_opt l ' ' with
         | Some i when String.sub l 0 i = name ->
             int_of_string_opt (String.sub l (i + 1) (String.length l - i - 1))
         | _ -> None)

(* A process-wide counter's current value, 0 before its first move. *)
let metric name =
  Option.value ~default:0 (metric_value (Crd_obs.dump ()) name)

let snitch_trace () =
  let trace = Trace.create () in
  ignore (W.Snitch.run ~seed:1L ~sink:(Trace.append trace) ());
  trace

(* The offline reference: the engine at jobs 1 with the server's
   default analyzer configuration (RD2 alone). *)
let offline_races trace =
  let an =
    Analyzer.with_stdspecs
      ~config:
        {
          Analyzer.rd2 = `Constant;
          direct = false;
          fasttrack = false;
          djit = false;
          atomicity = false;
        }
      ()
  in
  Analyzer.run_trace an trace;
  Analyzer.rd2_races an

(* Race lines rendered exactly as a session's reply renders them. *)
let race_lines races = List.map (fun r -> Fmt.str "%a" Report.pp r) races
let offline_race_lines trace = race_lines (offline_races trace)

(* The per-race lines of a reply or [.report]; the summary is dropped. *)
let reply_race_lines reply =
  String.split_on_char '\n' reply
  |> List.filter (fun l -> String.starts_with ~prefix:"comm" l)

(* Per-fingerprint occurrence counts, the fold [rd2 query] serves. *)
let fingerprint_fold races =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun r ->
      let fp = Report.fingerprint r in
      Hashtbl.replace tbl fp
        (1 + Option.value ~default:0 (Hashtbl.find_opt tbl fp)))
    races;
  List.sort compare (Hashtbl.fold (fun fp c acc -> (fp, c) :: acc) tbl [])

(* The same fold, read back from a race database. *)
let db_fold dir =
  match Crd_racedb.Db.load dir with
  | Error e -> Alcotest.failf "load %s: %s" dir e
  | Ok v ->
      List.sort compare
        (List.map
           (fun (e : Crd_racedb.Entry.t) ->
             (e.Crd_racedb.Entry.fingerprint, Crd_racedb.Entry.count e))
           v.Crd_racedb.Db.v_entries)

let send_exn ~addr ?spec trace =
  match Client.send_trace ~addr ?spec trace with
  | Ok reply -> reply
  | Error e -> Alcotest.failf "send: %s" e

(* The fingerprints of [rd2 query --json] output, in output order. *)
let json_fingerprints json =
  let key = "\"fingerprint\":\"" in
  let nk = String.length key in
  let rec go i acc =
    if i + nk + 16 > String.length json then List.rev acc
    else if String.sub json i nk = key then
      go (i + nk + 16)
        (Int64.of_string ("0x" ^ String.sub json (i + nk) 16) :: acc)
    else go (i + 1) acc
  in
  go 0 []

(* Resolved against this test binary's own location so it works under
   both `dune runtest` (cwd = _build/default/test) and `dune exec`
   from the source root. *)
let rd2_exe =
  Filename.concat
    (Filename.concat (Filename.dirname Sys.executable_name) "..")
    (Filename.concat "bin" "rd2.exe")

let reap pid =
  try snd (Unix.waitpid [] pid) with Unix.Unix_error _ -> Unix.WEXITED 0

(* [rd2 args], its stdout; fails the test unless it exits 0. *)
let run_rd2 args =
  let out = fresh_path "crd-rd2-out" in
  let fd = Unix.openfile out [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o600 in
  let pid =
    Unix.create_process rd2_exe
      (Array.of_list ("rd2" :: args))
      Unix.stdin fd Unix.stderr
  in
  Unix.close fd;
  let status = reap pid in
  let text = read_file out in
  Sys.remove out;
  if status <> Unix.WEXITED 0 then
    Alcotest.failf "rd2 %s failed" (String.concat " " args);
  text
