module Varint = Crd_base.Varint

(* Only the slots that differ from the empty (bucket -1, count 0) are
   stored, as [slot; bucket; count] triples sorted by slot. A ring that
   saw one bucket costs one triple, however many slots it has. Every
   operation reads as the dense ring of [slots] (bucket, count) pairs
   that this stands for, stale and hand-decoded slots included. *)
type t = { res : int; slots : int; mutable cells : int array }

let create ~res ~slots =
  if res < 1 then invalid_arg "Rollup.create: res < 1";
  if slots < 1 then invalid_arg "Rollup.create: slots < 1";
  { res; slots; cells = [||] }

let res t = t.res
let slots t = t.slots
let copy t = { t with cells = Array.copy t.cells }
let stored cells = Array.length cells / 3
let is_empty ~bucket ~count = bucket = -1 && count = 0

(* The index of [slot]'s triple, or [lnot i] when it is not stored and
   would be inserted at triple [i]. A binary search over triples
   [lo, hi); top-level, so a lookup allocates no closure. *)
let rec search cells slot lo hi =
  if lo >= hi then lnot lo
  else
    let mid = (lo + hi) lsr 1 in
    let s = Array.unsafe_get cells (3 * mid) in
    if s = slot then mid
    else if s < slot then search cells slot (mid + 1) hi
    else search cells slot lo mid

let find cells slot = search cells slot 0 (stored cells)

let insert t i ~slot ~bucket ~count =
  let n = Array.length t.cells in
  let cells = Array.make (n + 3) slot in
  Array.blit t.cells 0 cells 0 (3 * i);
  cells.((3 * i) + 1) <- bucket;
  cells.((3 * i) + 2) <- count;
  Array.blit t.cells (3 * i) cells ((3 * i) + 3) (n - (3 * i));
  t.cells <- cells

(* The freshest bucket in the ring; new data never goes backwards past a
   full window, so anything older than [newest - slots + 1] is dead. An
   unstored slot holds -1, hence the floor. *)
let newest t =
  let hi = ref (-1) in
  for i = 0 to stored t.cells - 1 do
    hi := max !hi t.cells.((3 * i) + 1)
  done;
  !hi

let add_bucket t ~bucket ~count =
  if bucket >= 0 && count > 0 then begin
    let slot = bucket mod t.slots in
    let i = find t.cells slot in
    if i < 0 then insert t (lnot i) ~slot ~bucket ~count
    else
      let cells = t.cells in
      let cur = cells.((3 * i) + 1) in
      if cur = bucket then cells.((3 * i) + 2) <- cells.((3 * i) + 2) + count
      else if bucket > cur then begin
        (* the slot's previous tenant is a full window old: evict *)
        cells.((3 * i) + 1) <- bucket;
        cells.((3 * i) + 2) <- count
      end
    (* bucket < cur: the sample is older than the retained window *)
  end

let bucket_of t ts = int_of_float ts / t.res

let add ?(count = 1) t ts =
  if ts >= 0. then add_bucket t ~bucket:(bucket_of t ts) ~count

(* Slot order, each slot read when it is reached: with [dst == src] an
   add into a later slot is seen there, as in a walk over the dense
   ring. *)
let merge_into dst src =
  if dst.res <> src.res then invalid_arg "Rollup.merge_into: resolution mismatch";
  let rec from slot =
    let i = find src.cells slot in
    let i = if i < 0 then lnot i else i in
    if i < stored src.cells then begin
      let cells = src.cells in
      let bucket = cells.((3 * i) + 1) in
      if bucket >= 0 then add_bucket dst ~bucket ~count:cells.((3 * i) + 2);
      from (cells.(3 * i) + 1)
    end
  in
  from 0

(* Slot-wise lattice join: per slot keep the lexicographically greater
   (bucket, count) pair. Unlike [merge_into] this never adds, so joining
   replicas of the same ring is idempotent — the replication merge.
   The price of idempotence without per-node rings: when two nodes
   independently observe the same fingerprint in the same bucket the
   join keeps max(a, b), not a + b, so replicated time-series are
   LOWER BOUNDS on the fleet-wide rate. The per-node G-counter
   (Entry.counts) stays exact; query totals should come from it.
   Walks the two sorted triple arrays once, an unstored slot reading as
   (-1, 0), and stores the result at its exact size. *)
let join dst src =
  if dst.res <> src.res then invalid_arg "Rollup.join: resolution mismatch";
  if dst.slots <> src.slots then invalid_arg "Rollup.join: slot count mismatch";
  let a = dst.cells and b = src.cells in
  let na = stored a and nb = stored b in
  let out = Array.make (3 * (na + nb)) 0 in
  let n = ref 0 in
  let keep slot db dc sb sc =
    let bucket, count =
      if sb > db || (sb = db && sc > dc) then (sb, sc) else (db, dc)
    in
    if not (is_empty ~bucket ~count) then begin
      out.(3 * !n) <- slot;
      out.((3 * !n) + 1) <- bucket;
      out.((3 * !n) + 2) <- count;
      incr n
    end
  in
  let rec go i j =
    let sa = if i < na then a.(3 * i) else max_int
    and sb = if j < nb then b.(3 * j) else max_int in
    if i < na && sa < sb then begin
      keep sa a.((3 * i) + 1) a.((3 * i) + 2) (-1) 0;
      go (i + 1) j
    end
    else if j < nb && sb < sa then begin
      keep sb (-1) 0 b.((3 * j) + 1) b.((3 * j) + 2);
      go i (j + 1)
    end
    else if i < na && j < nb then begin
      keep sa a.((3 * i) + 1) a.((3 * i) + 2) b.((3 * j) + 1) b.((3 * j) + 2);
      go (i + 1) (j + 1)
    end
  in
  go 0 0;
  dst.cells <- (if 3 * !n = Array.length out then out else Array.sub out 0 (3 * !n))

(* Both rings store exactly their non-empty slots, so comparing the
   triples compares every slot. *)
let equal a b = a.res = b.res && a.slots = b.slots && a.cells = b.cells

(* A slot is live iff its bucket is within one window of the newest
   bucket; older tenants survive only in slots never reused since. *)
let iter_live t f =
  let hi = newest t in
  let lo = hi - t.slots + 1 in
  for i = 0 to stored t.cells - 1 do
    let bucket = t.cells.((3 * i) + 1) in
    if bucket >= lo && bucket >= 0 then f bucket t.cells.((3 * i) + 2)
  done

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
   empty slots (-1) in varint range. Unstored slots write (0, 0). *)
let encode b t =
  Varint.add b t.res;
  Varint.add b t.slots;
  let next = ref 0 in
  for slot = 0 to t.slots - 1 do
    if !next < stored t.cells && t.cells.(3 * !next) = slot then begin
      Varint.add b (t.cells.((3 * !next) + 1) + 1);
      Varint.add b t.cells.((3 * !next) + 2);
      incr next
    end
    else begin
      Buffer.add_char b '\x00';
      Buffer.add_char b '\x00'
    end
  done

let decode s pos =
  let res, pos = Varint.get s pos in
  let n, pos = Varint.get s pos in
  if res < 1 || n < 1 || n > 1 lsl 16 then failwith "rollup: bad shape";
  let pos = ref pos and rev = ref [] and live = ref 0 in
  for slot = 0 to n - 1 do
    let b, p = Varint.get s !pos in
    let count, p = Varint.get s p in
    let bucket = b - 1 in
    if not (is_empty ~bucket ~count) then begin
      rev := (slot, bucket, count) :: !rev;
      incr live
    end;
    pos := p
  done;
  let cells = Array.make (3 * !live) 0 in
  List.iteri
    (fun k (slot, bucket, count) ->
      let i = !live - 1 - k in
      cells.(3 * i) <- slot;
      cells.((3 * i) + 1) <- bucket;
      cells.((3 * i) + 2) <- count)
    !rev;
  ({ res; slots = n; cells }, !pos)
