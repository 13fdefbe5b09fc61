open Crd_base
open Crd_trace
open Crd_detector

type t = {
  ts : float;
  spec : string;
  report : Report.t;
  provenance : Provenance.t;
}

let make ?(ts = 0.) ?(provenance = Provenance.Witnessed) ~spec report =
  { ts; spec; report; provenance }
let fingerprint t = Report.fingerprint t.report

let equal_obj a b = Obj_id.id a = Obj_id.id b && Obj_id.name a = Obj_id.name b

let equal_action (a : Action.t) (b : Action.t) =
  equal_obj a.obj b.obj && a.meth = b.meth
  && List.equal Value.equal a.args b.args
  && List.equal Value.equal a.rets b.rets

let equal a b =
  Int64.equal (Int64.bits_of_float a.ts) (Int64.bits_of_float b.ts)
  && a.spec = b.spec
  && Provenance.equal a.provenance b.provenance
  &&
  let ra = a.report and rb = b.report in
  ra.Report.index = rb.Report.index
  && equal_obj ra.obj rb.obj
  && Tid.to_int ra.tid = Tid.to_int rb.tid
  && equal_action ra.action rb.action
  && ra.point = rb.point && ra.conflicting = rb.conflicting
  && Option.equal
       (fun (t1, a1) (t2, a2) -> Tid.to_int t1 = Tid.to_int t2 && equal_action a1 a2)
       ra.prior rb.prior

let pp ppf t =
  Fmt.pf ppf "@[%s ts=%.3f spec=%s prov=%a %a@]"
    (Report.fingerprint_hex t.report)
    t.ts t.spec Provenance.pp t.provenance Report.pp t.report

(* ------------------------------------------------------------------ *)
(* Binary form. Integers are [Varint]s, signed ones zigzagged; values are
   tagged like the trace codec but carry strings inline (no interning,
   records decode in isolation). *)

let add_str b s =
  Varint.add b (String.length s);
  Buffer.add_string b s

let add_i64 b v =
  for i = 0 to 7 do
    Buffer.add_char b (Char.chr (Int64.to_int (Int64.shift_right_logical v (8 * i)) land 0xff))
  done

let add_value b = function
  | Value.Nil -> Buffer.add_char b '\x00'
  | Value.Bool false -> Buffer.add_char b '\x01'
  | Value.Bool true -> Buffer.add_char b '\x02'
  | Value.Int i ->
      Buffer.add_char b '\x03';
      Varint.add_zigzag b i
  | Value.Str s ->
      Buffer.add_char b '\x04';
      add_str b s
  | Value.Ref r ->
      Buffer.add_char b '\x05';
      Varint.add_zigzag b r

let add_values b vs =
  Varint.add b (List.length vs);
  List.iter (add_value b) vs

let add_obj b o =
  Varint.add_zigzag b (Obj_id.id o);
  add_str b (Obj_id.name o)

let add_action b (a : Action.t) =
  add_obj b a.obj;
  add_str b a.meth;
  add_values b a.args;
  add_values b a.rets

let add_to_buffer b t =
  add_i64 b (Int64.bits_of_float t.ts);
  add_str b t.spec;
  let r = t.report in
  Varint.add b r.Report.index;
  add_obj b r.obj;
  Varint.add b (Tid.to_int r.tid);
  add_action b r.action;
  add_str b r.point;
  add_str b r.conflicting;
  (* The prior tag also carries the provenance (bit 1), so witnessed
     records — the only kind that existed before prediction — stay
     byte-identical to the historical encoding and old samples keep
     electing deterministically. *)
  let prov_bit =
    match t.provenance with Provenance.Witnessed -> 0 | Provenance.Predicted -> 2
  in
  (match r.prior with
  | None -> Buffer.add_char b (Char.chr prov_bit)
  | Some (tid, a) ->
      Buffer.add_char b (Char.chr (1 lor prov_bit));
      Varint.add b (Tid.to_int tid);
      add_action b a)

let encode t =
  let b = Buffer.create 128 in
  add_to_buffer b t;
  Buffer.contents b

let get_str s pos =
  let n, pos = Varint.get s pos in
  if n < 0 || pos + n > String.length s then failwith "record: bad string";
  (String.sub s pos n, pos + n)

let get_i64 s pos =
  if pos + 8 > String.length s then failwith "record: bad i64";
  let v = ref 0L in
  for i = 7 downto 0 do
    v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (Char.code s.[pos + i]))
  done;
  (!v, pos + 8)

let get_value s pos =
  if pos >= String.length s then failwith "record: bad value";
  let tag = Char.code s.[pos] in
  let pos = pos + 1 in
  match tag with
  | 0 -> (Value.Nil, pos)
  | 1 -> (Value.Bool false, pos)
  | 2 -> (Value.Bool true, pos)
  | 3 ->
      let v, pos = Varint.get s pos in
      (Value.Int (Varint.unzigzag v), pos)
  | 4 ->
      let v, pos = get_str s pos in
      (Value.Str v, pos)
  | 5 ->
      let v, pos = Varint.get s pos in
      (Value.Ref (Varint.unzigzag v), pos)
  | _ -> failwith "record: bad value tag"

let get_values s pos =
  let n, pos = Varint.get s pos in
  (* every value takes at least one byte: the enclosing string bounds
     the count, as it bounds every length *)
  if n < 0 || n > String.length s - pos then failwith "record: bad value count";
  let rec go acc n pos =
    if n = 0 then (List.rev acc, pos)
    else
      let v, pos = get_value s pos in
      go (v :: acc) (n - 1) pos
  in
  go [] n pos

let get_obj s pos =
  let id, pos = Varint.get s pos in
  let name, pos = get_str s pos in
  (Obj_id.make ~name (Varint.unzigzag id), pos)

let get_action s pos =
  let obj, pos = get_obj s pos in
  let meth, pos = get_str s pos in
  let args, pos = get_values s pos in
  let rets, pos = get_values s pos in
  (Action.make ~obj ~meth ~args ~rets (), pos)

let get_tid s pos =
  let v, pos = Varint.get s pos in
  if v < 0 || v > Tid.max_id then failwith "record: bad thread id";
  (Tid.of_int v, pos)

let decode_at s pos =
  let bits, pos = get_i64 s pos in
  let spec, pos = get_str s pos in
  let index, pos = Varint.get s pos in
  let obj, pos = get_obj s pos in
  let tid, pos = get_tid s pos in
  let action, pos = get_action s pos in
  let point, pos = get_str s pos in
  let conflicting, pos = get_str s pos in
  if pos >= String.length s then failwith "record: truncated";
  let tag = Char.code s.[pos] in
  if tag > 3 then failwith "record: bad prior tag";
  let provenance =
    if tag land 2 = 0 then Provenance.Witnessed else Provenance.Predicted
  in
  let prior, pos =
    if tag land 1 = 0 then (None, pos + 1)
    else
      let ptid, pos = get_tid s (pos + 1) in
      let pa, pos = get_action s pos in
      (Some (ptid, pa), pos)
  in
  ( {
      ts = Int64.float_of_bits bits;
      spec;
      provenance;
      report =
        {
          Report.index;
          obj;
          tid;
          action;
          point;
          conflicting;
          prior;
        };
    },
    pos )

let decode s =
  match decode_at s 0 with
  | r, pos when pos = String.length s -> Ok r
  | _ -> Error "record: trailing bytes"
  | exception Failure m -> Error m
