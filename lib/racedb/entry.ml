module Varint = Crd_base.Varint

type t = {
  fingerprint : int64;
  counts : Vv.t;
  ver : Vv.t;
  first_seen : float;
  last_seen : float;
  sample : Record.t;
  minutes : Rollup.t;
  hours : Rollup.t;
  days : Rollup.t;
  provenance : Provenance.t;
}

let count e = List.fold_left (fun acc (_, c) -> acc + c) 0 (Vv.to_list e.counts)

let snapshot e =
  {
    e with
    minutes = Rollup.copy e.minutes;
    hours = Rollup.copy e.hours;
    days = Rollup.copy e.days;
  }

(* Earliest record wins; equal timestamps fall back to the smaller
   encoding, so concurrent replicas elect the same sample without
   coordination. *)
let pick_sample (a : Record.t) (b : Record.t) =
  if a.ts < b.ts then a
  else if b.ts < a.ts then b
  else if Record.equal a b then a
  else if Record.encode a <= Record.encode b then a
  else b

let merge a b =
  if a.fingerprint <> b.fingerprint then
    invalid_arg "Entry.merge: fingerprint mismatch";
  let minutes = Rollup.copy a.minutes in
  let hours = Rollup.copy a.hours in
  let days = Rollup.copy a.days in
  Rollup.join minutes b.minutes;
  Rollup.join hours b.hours;
  Rollup.join days b.days;
  {
    fingerprint = a.fingerprint;
    counts = Vv.join a.counts b.counts;
    ver = Vv.join a.ver b.ver;
    first_seen = min a.first_seen b.first_seen;
    last_seen = max a.last_seen b.last_seen;
    sample = pick_sample a.sample b.sample;
    minutes;
    hours;
    days;
    provenance = Provenance.join a.provenance b.provenance;
  }

let equal a b =
  a.fingerprint = b.fingerprint
  && Vv.equal a.counts b.counts
  && Vv.equal a.ver b.ver
  && a.first_seen = b.first_seen
  && a.last_seen = b.last_seen
  && Record.equal a.sample b.sample
  && Rollup.equal a.minutes b.minutes
  && Rollup.equal a.hours b.hours
  && Rollup.equal a.days b.days
  && Provenance.equal a.provenance b.provenance

let add_i64le b v =
  for i = 0 to 7 do
    Buffer.add_char b
      (Char.chr (Int64.to_int (Int64.shift_right_logical v (8 * i)) land 0xff))
  done

let get_i64le s pos =
  if pos + 8 > String.length s then failwith "entry: truncated i64";
  let v = ref 0L in
  for i = 7 downto 0 do
    v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (Char.code s.[pos + i]))
  done;
  !v

(* The entry layout of index v3, 'H' frames and sync v2: the rings,
   the length-prefixed sample, then one provenance byte. *)
let encode b (e : t) =
  add_i64le b e.fingerprint;
  Vv.encode b e.counts;
  Vv.encode b e.ver;
  add_i64le b (Int64.bits_of_float e.first_seen);
  add_i64le b (Int64.bits_of_float e.last_seen);
  Rollup.encode b e.minutes;
  Rollup.encode b e.hours;
  Rollup.encode b e.days;
  let sample = Record.encode e.sample in
  Varint.add b (String.length sample);
  Buffer.add_string b sample;
  Buffer.add_char b
    (match e.provenance with
    | Provenance.Witnessed -> '\x00'
    | Provenance.Predicted -> '\x01')

(* The sample is length-prefixed; the enclosing (checksummed) string
   is its only bound. *)
let get_sample s pos =
  let n, pos = Varint.get s pos in
  if n < 0 || pos + n > String.length s then failwith "entry: bad sample";
  match Record.decode_at s pos with
  | r, fin when fin = pos + n -> (r, fin)
  | _ -> failwith "entry: bad sample"
  | exception Failure e -> failwith ("entry: " ^ e)

let decode s pos =
  let fingerprint = get_i64le s pos in
  let pos = pos + 8 in
  let counts, pos = Vv.decode s pos in
  let ver, pos = Vv.decode s pos in
  let first_seen = Int64.float_of_bits (get_i64le s pos) in
  let last_seen = Int64.float_of_bits (get_i64le s (pos + 8)) in
  let pos = pos + 16 in
  let minutes, pos = Rollup.decode s pos in
  let hours, pos = Rollup.decode s pos in
  let days, pos = Rollup.decode s pos in
  let sample, pos = get_sample s pos in
  if pos >= String.length s then failwith "entry: missing provenance";
  let provenance =
    match s.[pos] with
    | '\x00' -> Provenance.Witnessed
    | '\x01' -> Provenance.Predicted
    | _ -> failwith "entry: bad provenance"
  in
  ( {
      fingerprint;
      counts;
      ver;
      first_seen;
      last_seen;
      sample;
      minutes;
      hours;
      days;
      provenance;
    },
    pos + 1 )

let pp ppf e =
  Fmt.pf ppf "%016Lx n=%d prov=%a counts=%a ver=%a" e.fingerprint (count e)
    Provenance.pp e.provenance Vv.pp e.counts Vv.pp e.ver
