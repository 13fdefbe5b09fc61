(* The dense rollup ring that [Crd_racedb.Rollup] replaced, kept as the
   reference oracle of the differential qcheck in test_racedb.ml: two
   arrays of [slots] ints, a bucket number and a count per slot, empty
   slots holding (-1, 0). Same operations and the same wire form as the
   sparse ring. *)

module Varint = Crd_base.Varint

type t = {
  res : int;
  buckets : int array;  (* bucket number per slot; -1 = empty *)
  counts : int array;
}

let create ~res ~slots =
  if res < 1 then invalid_arg "Rollup.create: res < 1";
  if slots < 1 then invalid_arg "Rollup.create: slots < 1";
  { res; buckets = Array.make slots (-1); counts = Array.make slots 0 }

let res t = t.res
let slots t = Array.length t.buckets

let copy t =
  { res = t.res; buckets = Array.copy t.buckets; counts = Array.copy t.counts }

(* The freshest bucket in the ring; new data never goes backwards past a
   full window, so anything older than [newest - slots + 1] is dead. *)
let newest t = Array.fold_left max (-1) t.buckets

let add_bucket t ~bucket ~count =
  if bucket >= 0 && count > 0 then begin
    let slot = bucket mod Array.length t.buckets in
    let cur = t.buckets.(slot) in
    if cur = bucket then t.counts.(slot) <- t.counts.(slot) + count
    else if bucket > cur then begin
      (* the slot's previous tenant is a full window old: evict *)
      t.buckets.(slot) <- bucket;
      t.counts.(slot) <- count
    end
    (* bucket < cur: the sample is older than the retained window *)
  end

let bucket_of t ts = int_of_float ts / t.res

let add ?(count = 1) t ts =
  if ts >= 0. then add_bucket t ~bucket:(bucket_of t ts) ~count

let merge_into dst src =
  if dst.res <> src.res then invalid_arg "Rollup.merge_into: resolution mismatch";
  Array.iteri
    (fun slot bucket ->
      if bucket >= 0 then add_bucket dst ~bucket ~count:src.counts.(slot))
    src.buckets

(* Slot-wise lattice join: per slot keep the lexicographically greater
   (bucket, count) pair. Unlike [merge_into] this never adds, so joining
   replicas of the same ring is idempotent — the replication merge.
   The price of idempotence without per-node rings: when two nodes
   independently observe the same fingerprint in the same bucket the
   join keeps max(a, b), not a + b, so replicated time-series are
   LOWER BOUNDS on the fleet-wide rate. The per-node G-counter
   (Entry.counts) stays exact; query totals should come from it. *)
let join dst src =
  if dst.res <> src.res then invalid_arg "Rollup.join: resolution mismatch";
  if Array.length dst.buckets <> Array.length src.buckets then
    invalid_arg "Rollup.join: slot count mismatch";
  Array.iteri
    (fun slot bucket ->
      let cur = dst.buckets.(slot) in
      if bucket > cur then begin
        dst.buckets.(slot) <- bucket;
        dst.counts.(slot) <- src.counts.(slot)
      end
      else if bucket = cur && src.counts.(slot) > dst.counts.(slot) then
        dst.counts.(slot) <- src.counts.(slot))
    src.buckets

let equal a b =
  a.res = b.res && a.buckets = b.buckets && a.counts = b.counts

(* A slot is live iff its bucket is within one window of the newest
   bucket; older tenants survive only in slots never reused since. *)
let iter_live t f =
  let hi = newest t in
  let lo = hi - Array.length t.buckets + 1 in
  Array.iteri
    (fun slot bucket -> if bucket >= lo && bucket >= 0 then f bucket t.counts.(slot))
    t.buckets

let total t =
  let acc = ref 0 in
  iter_live t (fun _ c -> acc := !acc + c);
  !acc

let total_since t cutoff =
  let acc = ref 0 in
  iter_live t (fun b c ->
      if float_of_int ((b + 1) * t.res) > cutoff then acc := !acc + c);
  !acc

let to_list t =
  let xs = ref [] in
  iter_live t (fun b c -> xs := (b, c) :: !xs);
  List.sort (fun (a, _) (b, _) -> compare a b) !xs
  |> List.map (fun (b, c) -> (float_of_int (b * t.res), c))

(* Wire form: res, slots, then (bucket+1, count) per slot — the +1 keeps
   empty slots (-1) in varint range. *)
let encode b t =
  Varint.add b t.res;
  Varint.add b (Array.length t.buckets);
  for slot = 0 to Array.length t.buckets - 1 do
    Varint.add b (t.buckets.(slot) + 1);
    Varint.add b t.counts.(slot)
  done

let decode s pos =
  let res, pos = Varint.get s pos in
  let n, pos = Varint.get s pos in
  if res < 1 || n < 1 || n > 1 lsl 16 then failwith "rollup: bad shape";
  let t = create ~res ~slots:n in
  let pos = ref pos in
  for slot = 0 to n - 1 do
    let b, p = Varint.get s !pos in
    let c, p = Varint.get s p in
    t.buckets.(slot) <- b - 1;
    t.counts.(slot) <- c;
    pos := p
  done;
  (t, !pos)
