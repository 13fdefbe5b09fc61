(* LEB128 over the unsigned bit pattern of an OCaml int: [lsr] makes the
   loop terminate after at most 9 bytes (63 bits / 7). Most varints on
   every path (string ids, thread ids, counts) are one byte, so that case
   skips the loop. *)
let add b n =
  if n land lnot 0x7f = 0 then Buffer.add_char b (Char.unsafe_chr n)
  else begin
    let n = ref n in
    let continue = ref true in
    while !continue do
      let low = !n land 0x7f in
      let rest = !n lsr 7 in
      if rest = 0 then begin
        Buffer.add_char b (Char.unsafe_chr low);
        continue := false
      end
      else begin
        Buffer.add_char b (Char.unsafe_chr (low lor 0x80));
        n := rest
      end
    done
  end

let get s pos =
  let len = String.length s in
  let rec go acc shift pos =
    if pos >= len then failwith "varint: truncated"
    else if shift > 56 then failwith "varint: overflow"
    else
      let c = Char.code (String.unsafe_get s pos) in
      let acc = acc lor ((c land 0x7f) lsl shift) in
      if c land 0x80 = 0 then (acc, pos + 1) else go acc (shift + 7) (pos + 1)
  in
  go 0 0 pos

(* Zigzag so small negative ints stay small on the wire; a bijection on
   the 63-bit patterns, so every int round-trips. *)
let zigzag i = (i lsl 1) lxor (i asr 62)
let unzigzag u = (u lsr 1) lxor (- (u land 1))
let add_zigzag b i = add b (zigzag i)
