module Varint = Crd_base.Varint

(* --- observability ------------------------------------------------- *)

let m_appends =
  Crd_obs.counter ~help:"Records appended to the race database"
    "racedb_append_total"

let m_bytes =
  Crd_obs.counter ~help:"Frame bytes appended to racedb segments"
    "racedb_append_bytes_total"

let m_syncs =
  Crd_obs.counter ~help:"Racedb commit markers published" "racedb_sync_total"

let m_rotations =
  Crd_obs.counter ~help:"Racedb segment rotations" "racedb_rotations_total"

let m_compactions =
  Crd_obs.counter ~help:"Racedb compactions completed" "racedb_compact_total"

let m_compact_failures =
  Crd_obs.counter ~help:"Racedb compactions aborted (fault or I/O)"
    "racedb_compact_failures_total"

let m_salvaged =
  Crd_obs.counter ~help:"Records salvaged past a commit marker at open"
    "racedb_salvaged_total"

let m_truncated =
  Crd_obs.counter ~help:"Torn tail bytes truncated at open"
    "racedb_truncated_bytes_total"

let m_merges =
  Crd_obs.counter ~help:"Remote entries merged into the race database"
    "racedb_merge_total"

let m_deduped =
  Crd_obs.counter ~help:"Session publications skipped as already published"
    "racedb_publish_dedup_total"

let m_publish_errors =
  Crd_obs.counter ~help:"Racedb publications that failed or were refused"
    "racedb_publish_errors_total"

let h_append =
  Crd_obs.histogram ~help:"Racedb append latency" "racedb_append_seconds"

let h_compact =
  Crd_obs.histogram ~help:"Racedb compaction latency" "racedb_compact_seconds"

let fp_append = Crd_fault.point "racedb_append"
let fp_compact = Crd_fault.point "racedb_compact"

(* --- crc32 (IEEE, as in zip/png) ----------------------------------- *)

(* Slicing-by-8: table k advances a byte through k further zero bytes,
   so eight input bytes cost eight lookups and no loop-carried shift
   chain. Table 0 is the classic bytewise table; the result is
   bit-identical to the bytewise loop, which still handles the tail. *)
let crc_tables =
  let t = Array.make (8 * 256) 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 = 1 then 0xedb88320 lxor (!c lsr 1) else !c lsr 1
    done;
    t.(n) <- !c
  done;
  for k = 1 to 7 do
    for n = 0 to 255 do
      let prev = t.(((k - 1) * 256) + n) in
      t.((k * 256) + n) <- (prev lsr 8) lxor t.(prev land 0xff)
    done
  done;
  t

(* [crc32_update] folds [len] bytes of [s] into a running state that
   starts at [crc32_init]; [crc32_finish] turns the state into the
   checksum, so bytes checksummed in pieces give the whole-string value. *)
let crc32_init = 0xffffffff

let crc32_update crc s off len =
  let t i = Array.unsafe_get crc_tables i in
  let u32 i = Int32.to_int (String.get_int32_le s i) land 0xffffffff in
  let c = ref crc in
  let i = ref off in
  let fin = off + len in
  while !i + 8 <= fin do
    let one = !c lxor u32 !i and two = u32 (!i + 4) in
    c :=
      t ((7 * 256) + (one land 0xff))
      lxor t ((6 * 256) + ((one lsr 8) land 0xff))
      lxor t ((5 * 256) + ((one lsr 16) land 0xff))
      lxor t ((4 * 256) + (one lsr 24))
      lxor t ((3 * 256) + (two land 0xff))
      lxor t ((2 * 256) + ((two lsr 8) land 0xff))
      lxor t (256 + ((two lsr 16) land 0xff))
      lxor t (two lsr 24);
    i := !i + 8
  done;
  for j = !i to fin - 1 do
    c := t ((!c lxor Char.code (String.unsafe_get s j)) land 0xff) lxor (!c lsr 8)
  done;
  !c

let crc32_finish crc = crc lxor 0xffffffff
let crc32 s off len = crc32_finish (crc32_update crc32_init s off len)

let get_u32le s pos =
  let v = ref 0 in
  for i = 3 downto 0 do
    v := (!v lsl 8) lor Char.code s.[pos + i]
  done;
  !v

(* --- paths --------------------------------------------------------- *)

let seg_path dir id = Filename.concat dir (Printf.sprintf "seg-%08d.log" id)
let marker_path dir id = Filename.concat dir (Printf.sprintf "seg-%08d.ok" id)
let index_path dir = Filename.concat dir "index.crdx"
let lock_path dir = Filename.concat dir "lock"
let node_path dir = Filename.concat dir "node"

let drop_segment dir id =
  Crd_io.unlink_quiet (seg_path dir id);
  Crd_io.unlink_quiet (marker_path dir id)

let segment_ids dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | entries ->
      Array.to_list entries
      |> List.filter_map (fun e ->
             match Scanf.sscanf_opt e "seg-%8d.log%!" (fun id -> id) with
             | Some id -> Some id
             | None -> None)
      |> List.sort Int.compare

(* --- node identity -------------------------------------------------- *)

let node_counter = Atomic.make 0

let gen_node_id () =
  let b = Bytes.create 8 in
  let from_urandom =
    match Unix.openfile "/dev/urandom" [ Unix.O_RDONLY ] 0 with
    | fd ->
        let ok =
          let rec go off =
            if off >= 8 then true
            else
              match Crd_io.read_retry fd b off (8 - off) with
              | 0 -> false
              | n -> go (off + n)
          in
          try go 0 with Unix.Unix_error _ -> false
        in
        (try Unix.close fd with Unix.Unix_error _ -> ());
        ok
    | exception Unix.Unix_error _ -> false
  in
  if from_urandom then
    String.concat ""
      (List.init 8 (fun i -> Printf.sprintf "%02x" (Char.code (Bytes.get b i))))
  else
    Printf.sprintf "%08x%04x%04x"
      (Int64.to_int (Int64.of_float (Unix.gettimeofday () *. 1e6)) land 0xffffffff)
      (Unix.getpid () land 0xffff)
      (Atomic.fetch_and_add node_counter 1 land 0xffff)

let read_node dir =
  match Crd_io.read_file (node_path dir) with
  | None -> None
  | Some s ->
      let s = String.trim s in
      if s = "" || String.length s > Vv.node_max_bytes then None else Some s

(* --- entries ------------------------------------------------------- *)

type stats = {
  distinct : int;
  predicted : int;
  total : int;
  segments : int;
  active_id : int;
  folded_up_to : int;
  data_bytes : int;
  salvaged : int;
  truncated_bytes : int;
}

let fresh_rings () =
  ( Rollup.create ~res:60 ~slots:60,
    Rollup.create ~res:3600 ~slots:48,
    Rollup.create ~res:86400 ~slots:30 )

let vv_next vvtbl node =
  let seq = (match Hashtbl.find_opt vvtbl node with Some v -> v | None -> 0) + 1 in
  Hashtbl.replace vvtbl node seq;
  seq

let vv_absorb vvtbl ver =
  List.iter
    (fun (n, v) ->
      match Hashtbl.find_opt vvtbl n with
      | Some cur when cur >= v -> ()
      | _ -> Hashtbl.replace vvtbl n v)
    (Vv.to_list ver)

let vv_of_tbl vvtbl =
  Vv.of_list (Hashtbl.fold (fun n v acc -> (n, v) :: acc) vvtbl [])

(* Fold [count] locally-observed records that share [r]'s fingerprint
   [fp], timestamp and provenance, [r] being the first of them: add
   [count] to our G-counter component and stamp the entry with [seq],
   the local sequence number of the last of them. Folding a group is
   the same as folding its records one by one: counts and rings add
   (a ring slot keeps its newest bucket and that bucket's sum, whatever
   the order), [ver] only grows, and a record of the same timestamp
   never displaces the sample. Replay at open re-walks segments in
   write order, so the same records always get the same sequence
   numbers back. *)
let fold_group ~node tbl ~fp ~seq ~count (r : Record.t) =
  match Hashtbl.find_opt tbl fp with
  | None ->
      let minutes, hours, days = fresh_rings () in
      Rollup.add ~count minutes r.ts;
      Rollup.add ~count hours r.ts;
      Rollup.add ~count days r.ts;
      Hashtbl.add tbl fp
        (ref
           {
             Entry.fingerprint = fp;
             counts = Vv.set Vv.empty node count;
             ver = Vv.set Vv.empty node seq;
             first_seen = r.ts;
             last_seen = r.ts;
             sample = r;
             minutes;
             hours;
             days;
             provenance = r.provenance;
           })
  | Some cell ->
      let e = !cell in
      Rollup.add ~count e.Entry.minutes r.ts;
      Rollup.add ~count e.Entry.hours r.ts;
      Rollup.add ~count e.Entry.days r.ts;
      cell :=
        {
          e with
          Entry.counts = Vv.set e.Entry.counts node (Vv.get e.Entry.counts node + count);
          ver = Vv.set e.Entry.ver node (max seq (Vv.get e.Entry.ver node));
          first_seen = min e.Entry.first_seen r.ts;
          last_seen = max e.Entry.last_seen r.ts;
          sample = (if r.ts < e.Entry.first_seen then r else e.Entry.sample);
          provenance = Provenance.join e.Entry.provenance r.provenance;
        }

let fold_record ~node ~vvtbl tbl (r : Record.t) =
  let seq = vv_next vvtbl node in
  fold_group ~node tbl ~fp:(Record.fingerprint r) ~seq ~count:1 r

(* One group of a counted chunk: [count] records like [first], the
   last of them at offset [last] in the chunk. *)
type group = {
  fp : int64;
  first : Record.t;
  mutable count : int;
  mutable last : int;
}

(* Fold a chunk of [n] records given as its groups: the same store as
   folding the [n] records in order (see [fold_group]); our version
   component then covers the whole chunk. *)
let fold_chunk ~node ~vvtbl tbl ~n groups =
  let base = match Hashtbl.find_opt vvtbl node with Some v -> v | None -> 0 in
  List.iter
    (fun g ->
      fold_group ~node tbl ~fp:g.fp ~seq:(base + g.last + 1)
        ~count:g.count g.first)
    groups;
  Hashtbl.replace vvtbl node (base + n)

(* Fold a replicated entry (an index row or a merged-entry frame):
   a pure lattice join, idempotent under replay. *)
let fold_entry ~vvtbl tbl (e : Entry.t) =
  vv_absorb vvtbl e.Entry.ver;
  match Hashtbl.find_opt tbl e.Entry.fingerprint with
  | None -> Hashtbl.add tbl e.Entry.fingerprint (ref (Entry.snapshot e))
  | Some cell -> cell := Entry.merge !cell e

let sort_entries es =
  List.sort
    (fun a b ->
      match Int.compare (Entry.count b) (Entry.count a) with
      | 0 -> Int64.compare a.Entry.fingerprint b.Entry.fingerprint
      | c -> c)
    es

(* --- framing ------------------------------------------------------- *)

(* Frame payloads are tagged:
     'R' record            one locally-observed record ([append])
     'C' counted chunk     nonce + one chunk of a published session as
                           groups of equal records, atomic ([publish])
     'H' merge batch       every entry changed by one [merge], atomic
   A batch ('C' or 'H') is a single checksummed frame so session
   publication and replica merges are all-or-nothing: a torn tail can
   never leave half a session behind the published-nonce marker it
   carries, nor a prefix of a merge behind a version vector that claims
   the whole delta. Inside a payload every length and count is bounded
   by the payload alone, so whatever a writer fits in a frame reads
   back; writers refuse frames over [max_frame_bytes], and [publish]
   session nonces over 64 bytes, which leaves [max_nonce_bytes] room
   for the "#i" chunk suffix. *)

let max_frame_bytes = 1 lsl 28
let batch_chunk_records = 4096
let max_nonce_bytes = Vv.node_max_bytes + 8

(* [varint(len) ^ contents ^ crc32_le(contents)] of [b]: one copy and
   one checksum pass over the bytes. *)
let frame_of_buffer b =
  let h = Buffer.create 5 in
  Varint.add h (Buffer.length b);
  let p = Buffer.length h and n = Buffer.length b in
  let out = Bytes.create (p + n + 4) in
  Buffer.blit h 0 out 0 p;
  Buffer.blit b 0 out p n;
  Bytes.set_int32_le out (p + n)
    (Int32.of_int (crc32 (Bytes.unsafe_to_string out) p n));
  Bytes.unsafe_to_string out

let frame_record r =
  let b = Buffer.create 256 in
  Buffer.add_char b 'R';
  Record.add_to_buffer b r;
  frame_of_buffer b

let frame_merge_batch es =
  let b = Buffer.create 4096 in
  Buffer.add_char b 'H';
  Varint.add b (List.length es);
  List.iter (Entry.encode b) es;
  frame_of_buffer b

exception Frame_too_large

(* 'C' varint(|nonce|) nonce varint(n) (varint(count) varint(last) record)*
   — one chunk of [n] records as groups, each [count] records equal to
   its first one in fingerprint, timestamp and provenance, the last of
   them at offset [last] of the chunk. Written into the reused buffer
   [b]; raises [Frame_too_large] as soon as the payload outgrows a
   frame. *)
let add_counted_chunk b ~nonce ~n groups =
  Buffer.clear b;
  Buffer.add_char b 'C';
  Varint.add b (String.length nonce);
  Buffer.add_string b nonce;
  Varint.add b n;
  List.iter
    (fun g ->
      Varint.add b g.count;
      Varint.add b g.last;
      Record.add_to_buffer b g.first;
      if Buffer.length b > max_frame_bytes then raise Frame_too_large)
    groups

(* Group a chunk by (fingerprint, ts, provenance), in order of first
   occurrence. [by_fp] maps a fingerprint to its groups: a session
   stamps one ts, so a fingerprint has one or two of them. *)
let group_chunk records =
  let by_fp = Hashtbl.create 1024 in
  let groups = ref [] in
  List.iteri
    (fun i (r : Record.t) ->
      let fp = Record.fingerprint r in
      let gs = Option.value (Hashtbl.find_opt by_fp fp) ~default:[] in
      let same g =
        Int64.bits_of_float g.first.Record.ts = Int64.bits_of_float r.ts
        && Provenance.equal g.first.Record.provenance r.provenance
      in
      match List.find_opt same gs with
      | Some g ->
          g.count <- g.count + 1;
          g.last <- i
      | None ->
          let g = { fp; first = r; count = 1; last = i } in
          Hashtbl.replace by_fp fp (g :: gs);
          groups := g :: !groups)
    records;
  List.rev !groups

let get_nonce payload pos =
  let n, pos = Varint.get payload pos in
  if n < 0 || n > max_nonce_bytes || pos + n > String.length payload then
    failwith "batch: bad nonce";
  (String.sub payload pos n, pos + n)

let decode_counted payload =
  (* payload.[0] = 'C' already consumed by the dispatcher *)
  let nonce, pos = get_nonce payload 1 in
  let n, pos = Varint.get payload pos in
  if n < 1 then failwith "chunk: bad record count";
  let rec go acc seen pos =
    if seen = n then begin
      if pos <> String.length payload then failwith "chunk: trailing bytes";
      (nonce, n, List.rev acc)
    end
    else
      let count, pos = Varint.get payload pos in
      if count < 1 || count > n - seen then failwith "chunk: bad group count";
      let last, pos = Varint.get payload pos in
      if last < 0 || last >= n then failwith "chunk: bad offset";
      let first, pos = Record.decode_at payload pos in
      go ({ fp = Record.fingerprint first; first; count; last } :: acc)
        (seen + count) pos
  in
  go [] 0 pos

let decode_merge_batch payload =
  (* the tag at payload.[0] was already consumed by the dispatcher *)
  let n, pos = Varint.get payload 1 in
  (* an entry takes more than 8 bytes: the payload bounds the count *)
  if n < 0 || n > String.length payload / 8 then
    failwith "merge batch: bad entry count";
  let rec go acc n pos =
    if n = 0 then List.rev acc
    else
      let e, pos = Entry.decode payload pos in
      go (e :: acc) (n - 1) pos
  in
  go [] n pos

(* Decode one checksummed payload into the fold that replays it.
   @raise Failure when it does not decode. *)
let decode_frame ~record ~counted ~entry payload =
  let n = String.length payload in
  match payload.[0] with
  | 'R' -> (
      match Record.decode_at payload 1 with
      | r, fin when fin = n -> fun () -> record r; 1
      | _ -> failwith "record: trailing bytes")
  | 'C' ->
      let nonce, k, gs = decode_counted payload in
      fun () -> counted ~nonce ~n:k gs; k
  | 'H' ->
      let es = decode_merge_batch payload in
      fun () -> List.iter entry es; List.length es
  | c -> failwith (Printf.sprintf "frame tag %C is not one this build writes" c)

(* Scan a segment image and replay every complete, checksummed frame;
   a frame that fails its length or checksum is a torn tail and ends
   the scan. A checksummed frame that does not decode is no torn tail
   but a frame this build cannot read: [Failure] naming [path] and the
   frame's offset, before anything is replayed past it. Returns the
   clean prefix length and how many replayed records lay beyond
   [committed]. *)
let scan_segment ~path ~committed bytes ~record ~counted ~entry =
  let len = String.length bytes in
  let rec go pos salvaged =
    match Varint.get bytes pos with
    | exception Failure _ -> (pos, salvaged)
    | n, data_pos when n <= 0 || n > max_frame_bytes || data_pos + n + 4 > len ->
        (pos, salvaged)
    | n, data_pos when get_u32le bytes (data_pos + n) <> crc32 bytes data_pos n ->
        (pos, salvaged)
    | n, data_pos ->
        let replay =
          match
            decode_frame ~record ~counted ~entry (String.sub bytes data_pos n)
          with
          | f -> f
          | exception Failure m ->
              failwith (Printf.sprintf "%s: byte %d: %s" path pos m)
        in
        let fin = data_pos + n + 4 in
        let k = replay () in
        go fin (if fin > committed then salvaged + k else salvaged)
  in
  go 0 0

let read_marker dir id =
  match Crd_io.read_file (marker_path dir id) with
  | None -> 0
  | Some s -> ( match int_of_string_opt (String.trim s) with Some n -> n | None -> 0)

(* --- index file ---------------------------------------------------- *)

let index_magic = "CRDX"
let index_version = 3

(* Write the index to [fd] through [b] and one [index_block]-byte block:
   the body is encoded into [b] piece by piece, and whenever [b] holds a
   block's worth it is copied out block by block, folded into the
   running CRC and written. Memory is the two buffers and an array of
   the entries, whatever the size of the index. *)
let index_block = 65536

let write_index fd b ~folded_up_to ~published tbl =
  let block = Bytes.create index_block in
  let crc = ref crc32_init in
  let drain () =
    let n = Buffer.length b in
    let rec go off =
      if off < n then begin
        let k = min index_block (n - off) in
        Buffer.blit b off block 0 k;
        crc := crc32_update !crc (Bytes.unsafe_to_string block) 0 k;
        Crd_io.write_sub fd block 0 k;
        go (off + k)
      end
    in
    go 0;
    Buffer.clear b
  in
  let drain_full () = if Buffer.length b >= index_block then drain () in
  Crd_io.write_all fd (index_magic ^ String.make 1 (Char.chr index_version));
  Buffer.clear b;
  Varint.add b folded_up_to;
  Varint.add b (List.length published);
  List.iter
    (fun nonce ->
      Varint.add b (String.length nonce);
      Buffer.add_string b nonce;
      drain_full ())
    (List.sort String.compare published);
  let es = Array.of_list (Hashtbl.fold (fun _ cell acc -> cell :: acc) tbl []) in
  Array.sort
    (fun a b -> Int64.compare !a.Entry.fingerprint !b.Entry.fingerprint)
    es;
  Varint.add b (Array.length es);
  Array.iter
    (fun cell ->
      Entry.encode b !cell;
      drain_full ())
    es;
  drain ();
  let tail = Bytes.create 4 in
  Bytes.set_int32_le tail 0 (Int32.of_int (crc32_finish !crc));
  Crd_io.write_sub fd tail 0 4;
  Array.length es

(* Only the index version this build writes is read; an older one
   (v1 before replication, v2 before provenance) is refused. *)
let decode_index s =
  let len = String.length s in
  if len < 9 || String.sub s 0 4 <> index_magic then Error "index: bad magic"
  else
    let version = Char.code s.[4] in
    if version < index_version then
      Error
        (Printf.sprintf
           "index: byte 4: version %d predates this build, which reads only \
            version %d"
           version index_version)
    else if version > index_version then
      Error (Printf.sprintf "index: byte 4: unknown version %d" version)
    else if get_u32le s (len - 4) <> crc32 s 5 (len - 9) then
      Error "index: checksum mismatch"
    else
      match
        let folded_up_to, pos = Varint.get s 5 in
        let np, pos = Varint.get s pos in
        if np < 0 || np > len then failwith "index: bad nonce count";
        let rec nonces acc np pos =
          if np = 0 then (List.rev acc, pos)
          else
            let n, pos = Varint.get s pos in
            if n < 0 || n > max_nonce_bytes || pos + n > len then
              failwith "index: bad nonce";
            nonces (String.sub s pos n :: acc) (np - 1) (pos + n)
        in
        let published, pos = nonces [] np pos in
        let n, pos = Varint.get s pos in
        if n < 0 || n > len / 8 then failwith "index: bad entry count";
        let rec go acc n pos =
          if n = 0 then List.rev acc
          else
            let e, pos = Entry.decode s pos in
            go (e :: acc) (n - 1) pos
        in
        (folded_up_to, published, go [] n pos)
      with
      | exception Failure m -> Error m
      | v -> Ok v

(* --- the writable handle ------------------------------------------- *)

type t = {
  dir : string;
  node : string;
  mu : Mutex.t;
  segment_bytes : int;
  sync_every : int;
  auto_compact : int;
  tbl : (int64, Entry.t ref) Hashtbl.t;
  vvtbl : (string, int) Hashtbl.t;
  published : (string, unit) Hashtbl.t;
  frame : Buffer.t;  (* [publish] scratch, one chunk's payload *)
  mutable active_id : int;
  mutable fd : Unix.file_descr;
  mutable active_bytes : int;
  mutable committed : int;
  mutable dirty : int;
  mutable sealed : int;  (* live segments below the active one *)
  mutable folded_up_to : int;
  mutable salvaged : int;
  mutable truncated_bytes : int;
  mutable closed : bool;
  mutable failed : string option;  (* a write could not be undone *)
  lock_fd : Unix.file_descr;
  lock_key : int * int;
}

let dir t = t.dir
let node_id t = t.node

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

(* Shared by the writable open and the read-only [load]. The whole
   store is read before anything is changed: [repair] then truncates
   torn tails and retires segments the index already covers, while the
   read-only path only observes. An index or frame this build cannot
   read fails the scan with nothing changed. *)
let scan_store ~repair ~node dir =
  let tbl = Hashtbl.create 64 in
  let vvtbl = Hashtbl.create 8 in
  let published = Hashtbl.create 64 in
  let folded_up_to = ref 0 in
  let salvaged = ref 0 in
  let truncated = ref 0 in
  (match Crd_io.read_file (index_path dir) with
  | None -> ()
  | Some s -> (
      match decode_index s with
      | Error e -> failwith (Printf.sprintf "%s: %s" (index_path dir) e)
      | Ok (f, nonces, es) ->
          folded_up_to := f;
          List.iter (fun n -> Hashtbl.replace published n ()) nonces;
          List.iter (fold_entry ~vvtbl tbl) es));
  let record = fold_record ~node ~vvtbl tbl in
  let counted ~nonce ~n groups =
    if nonce = "" || not (Hashtbl.mem published nonce) then begin
      fold_chunk ~node ~vvtbl tbl ~n groups;
      if nonce <> "" then Hashtbl.replace published nonce ()
    end
  in
  let entry = fold_entry ~vvtbl tbl in
  let live = ref [] in
  let fixes = ref [ (fun () -> Crd_io.unlink_quiet (index_path dir ^ ".tmp")) ] in
  let fix f = fixes := f :: !fixes in
  List.iter
    (fun id ->
      if id <= !folded_up_to then
        (* already in the index: leftover of a compaction that renamed
           but did not finish deleting before a crash *)
        fix (fun () -> drop_segment dir id)
      else
        let path = seg_path dir id in
        match Crd_io.read_file path with
        | None -> ()
        | Some bytes ->
            let committed = min (read_marker dir id) (String.length bytes) in
            let valid_end, salv =
              scan_segment ~path ~committed bytes ~record ~counted ~entry
            in
            salvaged := !salvaged + salv;
            truncated := !truncated + (String.length bytes - valid_end);
            if repair && valid_end = 0 then fix (fun () -> drop_segment dir id)
            else begin
              if valid_end < String.length bytes then
                fix (fun () ->
                    let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
                    Fun.protect
                      ~finally:(fun () -> Unix.close fd)
                      (fun () ->
                        Unix.ftruncate fd valid_end;
                        Unix.fsync fd));
              if valid_end <> committed then
                fix (fun () ->
                    Crd_io.write_file_atomic ~dir (marker_path dir id)
                      (Printf.sprintf "%d\n" valid_end));
              live := (id, valid_end) :: !live
            end)
    (segment_ids dir);
  if repair then List.iter (fun f -> f ()) (List.rev !fixes);
  (tbl, vvtbl, published, !folded_up_to, List.rev !live, !salvaged, !truncated)

(* [lockf] record locks never conflict within one process, so the
   cross-process lock below is paired with a process-local registry
   keyed by the lock file's identity. *)
let local_locks : (int * int, unit) Hashtbl.t = Hashtbl.create 4
let local_locks_mu = Mutex.create ()

let open_db ?(segment_bytes = 1 lsl 20) ?(sync_every = 64) ?(auto_compact = 8) dir =
  try
    Crd_io.mkdir_p dir;
    let lock_fd =
      Unix.openfile (lock_path dir) [ Unix.O_RDWR; Unix.O_CREAT ] 0o644
    in
    let st = Unix.fstat lock_fd in
    let lock_key = (st.Unix.st_dev, st.Unix.st_ino) in
    let locally_taken =
      Mutex.protect local_locks_mu (fun () ->
          if Hashtbl.mem local_locks lock_key then true
          else begin
            Hashtbl.add local_locks lock_key ();
            false
          end)
    in
    if locally_taken then begin
      Unix.close lock_fd;
      failwith (dir ^ ": race database locked by this process")
    end;
    let release_local () =
      Mutex.protect local_locks_mu (fun () ->
          Hashtbl.remove local_locks lock_key)
    in
    (match Unix.lockf lock_fd Unix.F_TLOCK 0 with
    | () -> ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EACCES), _, _) ->
        release_local ();
        Unix.close lock_fd;
        failwith (dir ^ ": race database locked by another process"));
    let stored_node = read_node dir in
    let node = match stored_node with Some n -> n | None -> gen_node_id () in
    match scan_store ~repair:true ~node dir with
    | exception e ->
        release_local ();
        (try Unix.close lock_fd with Unix.Unix_error _ -> ());
        raise e
    | tbl, vvtbl, published, folded_up_to, live, salvaged, truncated ->
        if stored_node = None then
          Crd_io.write_file_atomic ~dir (node_path dir) (node ^ "\n");
        Crd_obs.Counter.add m_salvaged salvaged;
        Crd_obs.Counter.add m_truncated truncated;
        let max_id =
          List.fold_left (fun acc (id, _) -> max acc id) folded_up_to live
        in
        let active_id = max_id + 1 in
        let fd =
          Unix.openfile (seg_path dir active_id)
            [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ]
            0o644
        in
        Crd_io.fsync_dir dir;
        Ok
          {
            dir;
            node;
            mu = Mutex.create ();
            segment_bytes = max 4096 segment_bytes;
            sync_every = max 1 sync_every;
            auto_compact;
            tbl;
            vvtbl;
            published;
            frame = Buffer.create 65536;
            active_id;
            fd;
            active_bytes = 0;
            committed = 0;
            dirty = 0;
            sealed = List.length live;
            folded_up_to;
            salvaged;
            truncated_bytes = truncated;
            closed = false;
            failed = None;
            lock_fd;
            lock_key;
          }
  with
  | Failure m -> Error m
  | Unix.Unix_error (e, fn, arg) ->
      Error (Printf.sprintf "%s: %s(%s)" (Unix.error_message e) fn arg)

let sync_locked t =
  if t.dirty > 0 || t.committed < t.active_bytes then begin
    Unix.fsync t.fd;
    Crd_io.write_file_atomic ~dir:t.dir
      (marker_path t.dir t.active_id)
      (Printf.sprintf "%d\n" t.active_bytes);
    t.committed <- t.active_bytes;
    t.dirty <- 0;
    Crd_obs.Counter.incr m_syncs
  end

let rotate_locked t =
  sync_locked t;
  (try Unix.close t.fd with Unix.Unix_error _ -> ());
  (* an empty sealed segment carries nothing: drop it *)
  if t.active_bytes = 0 then drop_segment t.dir t.active_id
  else t.sealed <- t.sealed + 1;
  t.active_id <- t.active_id + 1;
  t.fd <-
    Unix.openfile (seg_path t.dir t.active_id)
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ]
      0o644;
  Crd_io.fsync_dir t.dir;
  t.active_bytes <- 0;
  t.committed <- 0;
  Crd_obs.Counter.incr m_rotations

let compact_locked t =
  Crd_obs.time h_compact @@ fun () ->
  rotate_locked t;
  let folded_up_to = t.active_id - 1 in
  let published = Hashtbl.fold (fun n () acc -> n :: acc) t.published [] in
  let path = index_path t.dir in
  let tmp = path ^ ".tmp" in
  let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let distinct =
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        (* [t.frame] is free here: a publish that triggers this
           compaction has already sealed its frame *)
        let n = write_index fd t.frame ~folded_up_to ~published t.tbl in
        Unix.fsync fd;
        n)
  in
  (* the kill window the chaos soak aims at: tmp index written, nothing
     published — a crash (or injected abort) here must lose nothing *)
  Crd_fault.inject fp_compact;
  Unix.rename tmp path;
  Crd_io.fsync_dir t.dir;
  t.folded_up_to <- folded_up_to;
  t.sealed <- 0;
  List.iter
    (fun id -> if id <= folded_up_to then drop_segment t.dir id)
    (segment_ids t.dir);
  Crd_io.fsync_dir t.dir;
  Crd_obs.Counter.incr m_compactions;
  distinct

let compact_result t =
  match compact_locked t with
  | n -> Ok n
  | exception Crd_fault.Injected m ->
      Crd_obs.Counter.incr m_compact_failures;
      Error ("fault injected: " ^ m)
  | exception Unix.Unix_error (e, fn, arg) ->
      Crd_obs.Counter.incr m_compact_failures;
      Error (Printf.sprintf "%s: %s(%s)" (Unix.error_message e) fn arg)

(* The mutating calls refuse a closed handle, and a failed one: a write
   whose torn bytes could not be cut off would put every later frame
   behind them, where the next open truncates it away. *)
let writable t what =
  if t.closed then invalid_arg ("Crd_racedb.Db." ^ what ^ ": closed");
  Option.iter
    (fun e -> failwith (Printf.sprintf "racedb %s: handle failed: %s" what e))
    t.failed

(* Durable before visible: a frame is written first, and only then
   folded into memory (and its nonce marked published) by the caller,
   which then calls [appended_locked]. A write that fails is undone —
   the segment is cut back to its length before the write, so the next
   frame lands right after the last whole one — and fails the call. *)
let write_frame_locked t frame =
  match Crd_io.write_all t.fd frame with
  | () -> t.active_bytes <- t.active_bytes + String.length frame
  | exception (Unix.Unix_error (e, _, _) as exn) ->
      (try
         Unix.ftruncate t.fd t.active_bytes;
         ignore (Unix.lseek t.fd t.active_bytes Unix.SEEK_SET : int)
       with Unix.Unix_error (e', fn, _) ->
         t.failed <-
           Some
             (Printf.sprintf "%s, then %s failed: %s" (Unix.error_message e)
                fn (Unix.error_message e')));
      raise exn

(* Sync, rotate and compact as the frame just written and folded asks. *)
let appended_locked t frame ~records =
  t.dirty <- t.dirty + max 1 records;
  Crd_obs.Counter.add m_appends records;
  Crd_obs.Counter.add m_bytes (String.length frame);
  if t.dirty >= t.sync_every then sync_locked t;
  if t.active_bytes >= t.segment_bytes then begin
    rotate_locked t;
    if t.auto_compact > 0 && t.sealed >= t.auto_compact then
      (* auto-compaction failure must not fail the append that
         triggered it; the data is already durable in its segment *)
      ignore (compact_result t : (int, string) result)
  end

let append t r =
  Crd_obs.time h_append @@ fun () ->
  locked t @@ fun () ->
  writable t "append";
  Crd_fault.inject fp_append;
  let frame = frame_record r in
  if String.length frame > max_frame_bytes then
    failwith "racedb append: record exceeds the frame limit";
  write_frame_locked t frame;
  fold_record ~node:t.node ~vvtbl:t.vvtbl t.tbl r;
  appended_locked t frame ~records:1

(* Chunk nonces are derived deterministically from the record order, so
   a crash replay re-publishing the same session computes the same
   chunk identities and the dedup holds chunk by chunk. *)
let chunk_nonces nonce records =
  let rec chunks acc i = function
    | [] -> List.rev acc
    | rs ->
        let rec take n acc rs =
          match (n, rs) with
          | 0, _ | _, [] -> (List.rev acc, rs)
          | n, r :: rs -> take (n - 1) (r :: acc) rs
        in
        let chunk, rest = take batch_chunk_records [] rs in
        let cn =
          if nonce = "" then ""
          else if i = 0 then nonce
          else Printf.sprintf "%s#%d" nonce i
        in
        chunks ((cn, chunk) :: acc) (i + 1) rest
  in
  chunks [] 0 records

(* Each chunk is grouped, encoded into the reused [t.frame] buffer and
   sealed with one copy, folded group by group, then written as one
   'C' frame: the cost grows with the chunk's distinct races, not its
   records. *)
let publish t ~nonce records =
  if String.length nonce > Vv.node_max_bytes then
    invalid_arg "Crd_racedb.Db.publish: nonce too long";
  if records = [] then true
  else
    Crd_obs.time h_append @@ fun () ->
    locked t @@ fun () ->
    writable t "publish";
    Crd_fault.inject fp_append;
    let fresh = ref false in
    List.iter
      (fun (cn, chunk) ->
        if cn <> "" && Hashtbl.mem t.published cn then
          Crd_obs.Counter.incr m_deduped
        else begin
          fresh := true;
          let n = List.length chunk in
          let groups = group_chunk chunk in
          match add_counted_chunk t.frame ~nonce:cn ~n groups with
          | exception Frame_too_large ->
              (* nothing folded or written, the nonce stays unpublished *)
              Buffer.reset t.frame;
              Crd_obs.Counter.incr m_publish_errors;
              Crd_obs.Log.warn "racedb_chunk_refused"
                [ ("nonce", cn); ("records", string_of_int n) ]
          | () ->
              let frame = frame_of_buffer t.frame in
              write_frame_locked t frame;
              fold_chunk ~node:t.node ~vvtbl:t.vvtbl t.tbl ~n groups;
              if cn <> "" then Hashtbl.replace t.published cn ();
              appended_locked t frame ~records:n
        end)
      (chunk_nonces nonce records);
    !fresh

let published t nonce = locked t @@ fun () -> Hashtbl.mem t.published nonce

(* The apply is all-or-nothing: every change is staged off to the side,
   then written as ONE checksummed 'H' frame, because the version
   vector is the pointwise max over stored entry [ver]s — durably
   applying a prefix of the batch would advance it past entries never
   applied, and the peer's next [delta ~since] would skip them forever
   (the invariant crd_sync.mli's failure model leans on). A crash mid-
   write leaves a torn frame the next open discards whole; the fault
   point fires before anything is staged or written. Memory takes the
   batch only once the frame is written, and before the sync, rotation
   and compaction the append may trigger, so a compaction folds an index
   consistent with the segment it retires. *)
let merge t es =
  locked t @@ fun () ->
  writable t "merge";
  Crd_fault.inject fp_append;
  let staged = Hashtbl.create 16 in
  List.iter
    (fun (e : Entry.t) ->
      let cur =
        match Hashtbl.find_opt staged e.Entry.fingerprint with
        | Some m -> Some m
        | None ->
            Option.map (fun c -> !c) (Hashtbl.find_opt t.tbl e.Entry.fingerprint)
      in
      match cur with
      | None -> Hashtbl.replace staged e.Entry.fingerprint (Entry.snapshot e)
      | Some cur ->
          let merged = Entry.merge cur e in
          if not (Entry.equal merged cur) then
            Hashtbl.replace staged e.Entry.fingerprint merged)
    es;
  let changed =
    Hashtbl.fold (fun _ m acc -> m :: acc) staged []
    |> List.sort (fun (a : Entry.t) b ->
           Int64.compare a.Entry.fingerprint b.Entry.fingerprint)
  in
  match changed with
  | [] -> 0
  | changed ->
      let frame = frame_merge_batch changed in
      if String.length frame > max_frame_bytes then
        failwith "racedb merge: batch exceeds the frame limit";
      write_frame_locked t frame;
      List.iter
        (fun (m : Entry.t) ->
          vv_absorb t.vvtbl m.Entry.ver;
          Hashtbl.replace t.tbl m.Entry.fingerprint (ref m))
        changed;
      let n = List.length changed in
      appended_locked t frame ~records:n;
      Crd_obs.Counter.add m_merges n;
      sync_locked t;
      n

let version t = locked t @@ fun () -> vv_of_tbl t.vvtbl

let delta t ~since =
  locked t @@ fun () ->
  Hashtbl.fold
    (fun _ cell acc ->
      let e = !cell in
      if Vv.dominates since e.Entry.ver then acc else Entry.snapshot e :: acc)
    t.tbl []
  |> List.sort (fun a b -> Int64.compare a.Entry.fingerprint b.Entry.fingerprint)

let sync t =
  locked t @@ fun () ->
  writable t "sync";
  sync_locked t

let compact t =
  locked t @@ fun () ->
  match t.failed with
  | Some e -> Error ("handle failed: " ^ e)
  | None -> compact_result t

let entries t =
  locked t @@ fun () ->
  Hashtbl.fold (fun _ cell acc -> Entry.snapshot !cell :: acc) t.tbl []
  |> sort_entries

let du dir =
  List.fold_left
    (fun acc p -> match Unix.stat p with
      | { Unix.st_size; _ } -> acc + st_size
      | exception Unix.Unix_error _ -> acc)
    0
    (index_path dir :: List.map (seg_path dir) (segment_ids dir))

let stats_of tbl ~segments ~active_id ~folded_up_to ~data_bytes ~salvaged
    ~truncated_bytes =
  let total = Hashtbl.fold (fun _ cell acc -> acc + Entry.count !cell) tbl 0 in
  (* Predicted-only entries never inflate the witnessed distinct count:
     the headline number keeps meaning "races actually observed". *)
  let predicted =
    Hashtbl.fold
      (fun _ cell acc ->
        match (!cell).Entry.provenance with
        | Provenance.Predicted -> acc + 1
        | Provenance.Witnessed -> acc)
      tbl 0
  in
  {
    distinct = Hashtbl.length tbl - predicted;
    predicted;
    total;
    segments;
    active_id;
    folded_up_to;
    data_bytes;
    salvaged;
    truncated_bytes;
  }

let stats t =
  locked t @@ fun () ->
  stats_of t.tbl
    ~segments:(t.sealed + 1)
    ~active_id:t.active_id ~folded_up_to:t.folded_up_to ~data_bytes:(du t.dir)
    ~salvaged:t.salvaged ~truncated_bytes:t.truncated_bytes

let close t =
  locked t @@ fun () ->
  if not t.closed then begin
    t.closed <- true;
    sync_locked t;
    (try Unix.close t.fd with Unix.Unix_error _ -> ());
    if t.active_bytes = 0 then drop_segment t.dir t.active_id;
    Mutex.protect local_locks_mu (fun () ->
        Hashtbl.remove local_locks t.lock_key);
    try Unix.close t.lock_fd with Unix.Unix_error _ -> ()
  end

type view = {
  v_entries : Entry.t list;
  v_stats : stats;
  v_node : string;
  v_version : Vv.t;
}

let load dir =
  if not (Sys.file_exists dir) then Error (dir ^ ": no such directory")
  else
    let node = match read_node dir with Some n -> n | None -> "" in
    match scan_store ~repair:false ~node dir with
    | exception Failure m -> Error m
    | exception Unix.Unix_error (e, fn, arg) ->
        Error (Printf.sprintf "%s: %s(%s)" (Unix.error_message e) fn arg)
    | tbl, vvtbl, _published, folded_up_to, live, salvaged, truncated_bytes ->
        let es =
          Hashtbl.fold (fun _ cell acc -> !cell :: acc) tbl [] |> sort_entries
        in
        let active_id =
          List.fold_left (fun acc (id, _) -> max acc id) folded_up_to live
        in
        Ok
          {
            v_entries = es;
            v_stats =
              stats_of tbl ~segments:(List.length live) ~active_id
                ~folded_up_to ~data_bytes:(du dir) ~salvaged ~truncated_bytes;
            v_node = node;
            v_version = vv_of_tbl vvtbl;
          }

let select ?top ?since ?obj ?spec ?provenance es =
  let keep (e : Entry.t) =
    (match since with None -> true | Some cut -> e.Entry.last_seen >= cut)
    && (match obj with
       | None -> true
       | Some o ->
           Crd_base.Obj_id.name e.Entry.sample.Record.report.Crd_detector.Report.obj
           = o)
    && (match spec with None -> true | Some s -> e.Entry.sample.Record.spec = s)
    && match provenance with
       | None -> true
       | Some p -> Provenance.equal e.Entry.provenance p
  in
  let es = List.filter keep es in
  match top with
  | None -> es
  | Some n -> List.filteri (fun i _ -> i < n) es

let pp_stats ppf s =
  Fmt.pf ppf
    "@[<v>distinct: %d@,predicted: %d@,total: %d@,segments: %d (active \
     seg-%08d, folded up to %d)@,bytes: %d@,salvaged: %d@,truncated: %d@]"
    s.distinct s.predicted s.total s.segments s.active_id s.folded_up_to
    s.data_bytes s.salvaged s.truncated_bytes
