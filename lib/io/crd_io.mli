(** EINTR-safe descriptor I/O and durable-file helpers: the one place
    in the library that calls [Unix.read] and [Unix.write]
    ([scripts/lint.sh] fails on either anywhere else in [lib/]). *)

val fp_io_eintr : Crd_fault.point
(** Fault point ["io_eintr"]: injects [Unix.EINTR] immediately before a
    raw [read]/[write] syscall, one hit per syscall. The retry wrappers
    below absorb it, so an armed point exercises the interrupt-handling
    path of every caller (session sockets, sync exchanges, the racedb,
    journals and their replay) without a real signal storm. *)

val read_retry : Unix.file_descr -> Bytes.t -> int -> int -> int
(** [Unix.read], retrying on [EINTR]. Returns 0 only at end-of-stream. *)

val write_retry : Unix.file_descr -> Bytes.t -> int -> int -> int
(** [Unix.write], retrying on [EINTR]. May still write short; see
    {!write_sub}. *)

val write_sub : Unix.file_descr -> Bytes.t -> int -> int -> unit
(** [write_sub fd b off len] writes exactly [b[off..off+len)], looping
    over short writes and retrying interrupts — no copy of [b]. *)

val write_all : Unix.file_descr -> string -> unit
(** {!write_sub} of a whole string. *)

val mkdir_p : string -> unit
(** Create a directory and its missing parents (mode 0755). *)

val fsync_dir : string -> unit
(** Fsync a directory so renames and unlinks in it are durable;
    best-effort (errors are ignored). *)

val write_file_atomic : dir:string -> string -> string -> unit
(** [write_file_atomic ~dir path content] writes [path ^ ".tmp"],
    fsyncs it, renames it over [path] and fsyncs [dir]: a reader sees
    the old content or the new, never a prefix.
    @raise Unix.Unix_error on I/O failure. *)

val read_file : string -> string option
(** The whole file, or [None] if it cannot be opened or read. *)

val unlink_quiet : string -> unit
(** [Unix.unlink], ignoring errors. *)
