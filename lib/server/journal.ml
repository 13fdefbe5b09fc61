let m_bytes =
  Crd_obs.counter ~help:"Raw CRDW bytes appended to session journals"
    "journal_bytes_total"

let m_commits =
  Crd_obs.counter ~help:"Session journals committed (fsync'd end marker)"
    "journal_commits_total"

let fp_append = Crd_fault.point "journal_append"

let data_path dir nonce = Filename.concat dir (nonce ^ ".crdj")
let commit_path dir nonce = Filename.concat dir (nonce ^ ".commit")
let report_path dir nonce = Filename.concat dir (nonce ^ ".report")
let report_tmp_path dir nonce = report_path dir nonce ^ ".tmp"

let nonce_counter = Atomic.make 0

let fresh_nonce () =
  Printf.sprintf "s%x-%x-%x"
    (Unix.getpid ())
    (Int64.to_int
       (Int64.logand (Int64.of_float (Unix.gettimeofday () *. 1e6))
          0xFFFFFFFFFFFL))
    (Atomic.fetch_and_add nonce_counter 1)

type t = {
  dir : string;
  nonce : string;
  spec : string;
  fd : Unix.file_descr;
  mutable size : int;
  mutable closed : bool;
}

let start ~dir ~nonce ~spec =
  Crd_io.mkdir_p dir;
  (* A reconnect with the same nonce is a fresh run of the same logical
     session: drop any partial or stale state before the first byte.
     The data file is unlinked rather than O_TRUNC'd: a catch-up
     drainer may still be reading the previous segment, and the unlink
     keeps that inode whole until the drainer closes it. *)
  List.iter Crd_io.unlink_quiet
    [
      commit_path dir nonce;
      report_path dir nonce;
      report_tmp_path dir nonce;
      data_path dir nonce;
    ];
  let fd =
    Unix.openfile (data_path dir nonce)
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ]
      0o644
  in
  { dir; nonce; spec; fd; size = 0; closed = false }

let nonce t = t.nonce
let size t = t.size

let append_bytes t ?(off = 0) ?len b =
  let len = match len with Some l -> l | None -> Bytes.length b - off in
  Crd_fault.inject fp_append;
  Crd_io.write_sub t.fd b off len;
  t.size <- t.size + len;
  Crd_obs.Counter.add m_bytes len

let append t ?off ?len s = append_bytes t ?off ?len (Bytes.unsafe_of_string s)

(* The marker records the committed byte count and the handshake's spec
   name — everything recovery needs to replay the session exactly. *)
let commit t =
  Unix.fsync t.fd;
  Crd_io.write_file_atomic ~dir:t.dir
    (commit_path t.dir t.nonce)
    (Printf.sprintf "%d %s\n" t.size t.spec);
  Crd_obs.Counter.incr m_commits

let close t =
  if not t.closed then begin
    t.closed <- true;
    try Unix.close t.fd with Unix.Unix_error _ -> ()
  end

(* A [.report] is streamed into its [.tmp] block by block as the reply
   goes out, and renamed into place only once the whole reply was
   written: a reader sees a complete report or none. *)
module Report_file = struct
  type t = {
    dir : string;
    path : string;
    tmp : string;
    fd : Unix.file_descr;
    mutable closed : bool;
  }

  let start ~dir ~nonce =
    let tmp = report_tmp_path dir nonce in
    let fd =
      Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
    in
    { dir; path = report_path dir nonce; tmp; fd; closed = false }

  let add t b off len = Crd_io.write_sub t.fd b off len

  let close t =
    if not t.closed then begin
      t.closed <- true;
      Unix.close t.fd
    end

  let commit t =
    Unix.fsync t.fd;
    close t;
    Unix.rename t.tmp t.path;
    Crd_io.fsync_dir t.dir

  let abort t =
    (try close t with Unix.Unix_error _ -> ());
    Crd_io.unlink_quiet t.tmp

  let write ~dir ~nonce f =
    let t = start ~dir ~nonce in
    match
      f (add t);
      commit t
    with
    | () -> ()
    | exception e ->
        abort t;
        raise e
end

let write_report ~dir ~nonce text =
  Report_file.write ~dir ~nonce (fun add ->
      add (Bytes.unsafe_of_string text) 0 (String.length text))

(* --- recovery --------------------------------------------------- *)

let committed_unreported ~dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | entries ->
      Array.to_list entries
      |> List.filter_map (fun e ->
             if Filename.check_suffix e ".commit" then
               let nonce = Filename.chop_suffix e ".commit" in
               if Sys.file_exists (report_path dir nonce) then None
               else Some nonce
             else None)
      |> List.sort String.compare

let read_marker ~dir ~nonce =
  let marker = commit_path dir nonce in
  match In_channel.with_open_bin marker In_channel.input_all with
  | exception Sys_error e -> Error e
  | m -> (
      let m = String.trim m in
      let size, spec =
        match String.index_opt m ' ' with
        | Some i ->
            ( int_of_string_opt (String.sub m 0 i),
              String.sub m (i + 1) (String.length m - i - 1) )
        | None -> (int_of_string_opt m, "")
      in
      match size with
      | None -> Error (Printf.sprintf "%s: malformed commit marker" marker)
      | Some size -> Ok (size, spec))

(* The data file is checked against the marker up front, so a short
   one fails before [k] sees a byte; bytes past the marker were never
   committed (a crash mid-append after a retry) and [k] is told to stop
   at [size]. *)
let with_committed ~dir ~nonce k =
  match read_marker ~dir ~nonce with
  | Error e -> Error e
  | Ok (size, spec) -> (
      let data = data_path dir nonce in
      let io_error e =
        Error (Printf.sprintf "%s: %s" data (Unix.error_message e))
      in
      match Unix.openfile data [ Unix.O_RDONLY ] 0 with
      | exception Unix.Unix_error (e, _, _) -> io_error e
      | fd ->
          Fun.protect
            ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
            (fun () ->
              match Unix.fstat fd with
              | exception Unix.Unix_error (e, _, _) -> io_error e
              | { Unix.st_size; _ } when st_size < size ->
                  Error
                    (Printf.sprintf "%s: %d bytes but %d committed" data st_size
                       size)
              | _ -> Ok (k ~spec ~size fd)))
