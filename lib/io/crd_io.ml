(* A signal landing mid-syscall fails [read]/[write] with [EINTR]: a
   retry, not an error. Every raw fd read and write in the library goes
   through [read_retry] and [write_retry] (scripts/lint.sh holds the
   rest of lib/ to that), so no I/O path can abort on an interrupt. The
   [io_eintr] fault point injects the interrupt just before the
   syscall, letting a chaos spec storm every path with signals. *)
let fp_io_eintr = Crd_fault.point "io_eintr"

let rec read_retry fd b off len =
  match
    if Crd_fault.fire fp_io_eintr then
      raise (Unix.Unix_error (Unix.EINTR, "read", ""))
    else Unix.read fd b off len
  with
  | n -> n
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> read_retry fd b off len

let rec write_retry fd b off len =
  match
    if Crd_fault.fire fp_io_eintr then
      raise (Unix.Unix_error (Unix.EINTR, "write", ""))
    else Unix.write fd b off len
  with
  | n -> n
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_retry fd b off len

(* Short counts from [write] are legal even without signals; loop. *)
let write_sub fd b off len =
  let sent = ref 0 in
  while !sent < len do
    sent := !sent + write_retry fd b (off + !sent) (len - !sent)
  done

let write_all fd s = write_sub fd (Bytes.unsafe_of_string s) 0 (String.length s)

(* --- durable files ------------------------------------------------- *)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* Directory fsync so a rename survives the crash it is there to
   survive; best-effort on filesystems that refuse it. *)
let fsync_dir dir =
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | fd ->
      (try Unix.fsync fd with Unix.Unix_error _ -> ());
      Unix.close fd
  | exception Unix.Unix_error _ -> ()

let write_file_atomic ~dir path content =
  let tmp = path ^ ".tmp" in
  let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      write_all fd content;
      Unix.fsync fd);
  Unix.rename tmp path;
  fsync_dir dir

let read_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | s -> Some s
  | exception Sys_error _ -> None

let unlink_quiet path = try Unix.unlink path with Unix.Unix_error _ -> ()
