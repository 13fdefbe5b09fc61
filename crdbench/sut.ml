(* The system under test is always the built rd2 executable, run as a
   child process. This module starts and stops it, reads its resource
   use from /proc, and speaks the session protocol to a running server. *)

module Server = Crd_server.Server
module Proto = Crd_server.Proto

(* Children not yet reaped. Only the main thread spawns and reaps. *)
let live : int list ref = ref []

let rec waitpid_retry pid =
  try snd (Unix.waitpid [] pid)
  with Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_retry pid

let reaped pid = live := List.filter (( <> ) pid) !live

(* Whatever happens to the harness, no child outlives it. *)
let kill_all () =
  let pids = !live in
  live := [];
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (waitpid_retry pid) with Unix.Unix_error _ -> ())
    pids

let () = at_exit kill_all

let open_out_file path =
  Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o644

let spawn ~stdout ~stderr prog args =
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
  let out = open_out_file stdout and err = open_out_file stderr in
  let pid =
    Fun.protect
      ~finally:(fun () -> List.iter Unix.close [ null; out; err ])
      (fun () -> Unix.create_process prog (Array.of_list (prog :: args)) null out err)
  in
  live := pid :: !live;
  pid

let read_file path = try In_channel.with_open_bin path In_channel.input_all with Sys_error _ -> ""

let tail_of path =
  let s = read_file path in
  let n = String.length s in
  if n <= 2000 then s else String.sub s (n - 2000) 2000

let status_ok = function Unix.WEXITED 0 -> true | _ -> false

let pp_status = function
  | Unix.WEXITED n -> Printf.sprintf "exit %d" n
  | Unix.WSIGNALED n -> Printf.sprintf "signal %d" n
  | Unix.WSTOPPED n -> Printf.sprintf "stopped %d" n

(* ---- /proc ---------------------------------------------------------- *)

(* Peak resident set (VmHWM) in KiB; [None] once the process has exited. *)
let vm_hwm_kb pid =
  match In_channel.with_open_text (Printf.sprintf "/proc/%d/status" pid) In_channel.input_all with
  | exception Sys_error _ -> None
  | s ->
      List.find_map
        (fun line ->
          if String.starts_with ~prefix:"VmHWM:" line then
            Scanf.sscanf_opt (String.sub line 6 (String.length line - 6)) " %d" Fun.id
          else None)
        (String.split_on_char '\n' s)

(* User + system CPU seconds of a live process, all threads included.
   Linux reports them in USER_HZ ticks, which is 100 on every platform
   the kernel still supports. *)
let cpu_s pid =
  match In_channel.with_open_text (Printf.sprintf "/proc/%d/stat" pid) In_channel.input_all with
  | exception Sys_error _ -> None
  | s -> (
      match String.rindex_opt s ')' with
      | None -> None
      | Some i -> (
          let fields =
            String.split_on_char ' ' (String.trim (String.sub s (i + 1) (String.length s - i - 1)))
          in
          (* After the command name: state is field 3, utime 14, stime 15. *)
          match (List.nth_opt fields 11, List.nth_opt fields 12) with
          | Some u, Some st -> (
              match (float_of_string_opt u, float_of_string_opt st) with
              | Some u, Some st -> Some ((u +. st) /. 100.)
              | _ -> None)
          | _ -> None))

let children_cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_cutime +. t.Unix.tms_cstime

(* ---- one-shot runs -------------------------------------------------- *)

type run = {
  wall_s : float;
  cpu_s : float;  (** user + system of the child *)
  hwm_kb : int;  (** last VmHWM sample before exit *)
  status : Unix.process_status;
}

(* Run [prog args] to completion. A sampler thread reads VmHWM every
   10 ms while this thread blocks in waitpid, so the wall time is not
   quantised by the sampling period. *)
let run_sampled ~stdout ~stderr prog args =
  let c0 = children_cpu_s () in
  let t0 = Unix.gettimeofday () in
  let pid = spawn ~stdout ~stderr prog args in
  let hwm = ref 0 and stop = Atomic.make false in
  let sampler =
    Thread.create
      (fun () ->
        while not (Atomic.get stop) do
          (match vm_hwm_kb pid with Some k -> hwm := k | None -> ());
          Thread.delay 0.01
        done)
      ()
  in
  let status = waitpid_retry pid in
  let t1 = Unix.gettimeofday () in
  reaped pid;
  Atomic.set stop true;
  Thread.join sampler;
  { wall_s = t1 -. t0; cpu_s = children_cpu_s () -. c0; hwm_kb = !hwm; status }

(* ---- servers -------------------------------------------------------- *)

(* Every socket read and write gives up after 30 s, so a wedged server
   fails the operation instead of hanging the run. *)
let connect addr =
  match Server.connect addr with
  | fd ->
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO 30.;
      Unix.setsockopt_float fd Unix.SO_SNDTIMEO 30.;
      Ok fd
  | exception Unix.Unix_error (e, fn, _) -> Error (Printf.sprintf "%s: %s" fn (Unix.error_message e))
  | exception Failure m -> Error m

let exchange addr request =
  match connect addr with
  | Error e -> Error e
  | Ok fd ->
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          try
            if request <> "" then Proto.write_all fd request;
            Ok (Proto.read_to_eof fd)
          with Unix.Unix_error (e, fn, _) ->
            Error (Printf.sprintf "%s: %s" fn (Unix.error_message e)))

let healthy addr =
  match exchange addr "HEALTH\n" with
  | Ok reply -> String.starts_with ~prefix:"HEALTH" reply
  | Error _ -> false

type server = { pid : int; log : string }

(* Spawn a server and wait for its first HEALTH reply; the returned
   duration is the server's set-up time as a client sees it. *)
let start_server ~log ~addr prog args =
  let t0 = Unix.gettimeofday () in
  let pid = spawn ~stdout:(log ^ ".out") ~stderr:log prog args in
  let deadline = t0 +. 30. in
  let rec wait () =
    if healthy addr then Ok ({ pid; log }, Unix.gettimeofday () -. t0)
    else
      match Unix.waitpid [ Unix.WNOHANG ] pid with
      | p, st when p = pid ->
          reaped pid;
          Error (Printf.sprintf "rd2 serve died at start-up (%s): %s" (pp_status st) (tail_of log))
      | _ ->
          if Unix.gettimeofday () > deadline then Error "rd2 serve did not answer HEALTH within 30 s"
          else (
            Thread.delay 0.001;
            wait ())
  in
  match wait () with
  | Ok _ as ok -> ok
  | Error _ as e ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      (try ignore (waitpid_retry pid) with Unix.Unix_error _ -> ());
      reaped pid;
      e

(* SIGTERM drains in-flight sessions and flushes the race database;
   a server that has not exited after 30 s is killed. *)
let stop_server s =
  (try Unix.kill s.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = Unix.gettimeofday () +. 30. in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] s.pid with
    | p, st when p = s.pid -> st
    | _ ->
        if Unix.gettimeofday () > deadline then (
          (try Unix.kill s.pid Sys.sigkill with Unix.Unix_error _ -> ());
          waitpid_retry s.pid)
        else (
          Thread.delay 0.005;
          wait ())
  in
  let st = wait () in
  reaped s.pid;
  st

(* One Prometheus-style dump from the metrics listener: plain samples
   and histogram _sum/_count lines; bucket lines are skipped. *)
let scrape addr =
  let tbl = Hashtbl.create 64 in
  (match exchange addr "" with
  | Error _ -> ()
  | Ok text ->
      List.iter
        (fun line ->
          match String.split_on_char ' ' line with
          | [ name; v ] when line.[0] <> '#' && not (String.contains name '{') -> (
              match float_of_string_opt v with Some f -> Hashtbl.replace tbl name f | None -> ())
          | _ -> ())
        (String.split_on_char '\n' text));
  tbl

let metric tbl name = Option.value ~default:0. (Hashtbl.find_opt tbl name)

(* ---- sessions ------------------------------------------------------- *)

(* One closed-loop session over pre-encoded CRDW bytes: handshake,
   stream, read the report to end of stream. Encoding is done once up
   front, so the load generator spends its CPU on sockets only. *)
let session addr ~nonce bytes =
  match connect addr with
  | Error e -> Error e
  | Ok fd ->
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          try
            Proto.send_handshake fd ~nonce ~spec:"std" ();
            match Proto.read_handshake_reply fd with
            | Ok Proto.Accepted -> Ok (Proto.write_all fd bytes; Proto.read_to_eof fd)
            | Ok (Proto.Busy ms) -> Error (Printf.sprintf "BUSY retry-after=%dms" ms)
            | Ok (Proto.Rejected m) -> Error ("rejected: " ^ m)
            | Error e -> Error e
          with Unix.Unix_error (e, fn, _) ->
            Error (Printf.sprintf "%s: %s" fn (Unix.error_message e)))
