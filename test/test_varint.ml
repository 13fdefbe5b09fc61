(* [Varint]: LEB128 round trips on every magnitude, the encoded length,
   the byte-for-byte match with the original encoder loop, and [get]'s
   failures on truncated and over-long input. *)

open Crd
module Gen = QCheck2.Gen

(* The encoder loop [Varint.add] replaced (it had no one-byte fast
   path), kept as the reference for the bytes on the wire. *)
let reference_add b n =
  let n = ref n in
  let continue = ref true in
  while !continue do
    let low = !n land 0x7f in
    let rest = !n lsr 7 in
    if rest = 0 then begin
      Buffer.add_char b (Char.chr low);
      continue := false
    end
    else begin
      Buffer.add_char b (Char.chr (low lor 0x80));
      n := rest
    end
  done

let encode add n =
  let b = Buffer.create 10 in
  add b n;
  Buffer.contents b

(* Significant bits of the unsigned 63-bit pattern of [n]. *)
let bits n =
  let rec go k = if k < 63 && n lsr k <> 0 then go (k + 1) else k in
  go 0

let expected_length n = max 1 ((bits n + 6) / 7)

(* [None] when the property holds, else what went wrong. *)
let check n =
  let s = encode Varint.add n in
  if s <> encode reference_add n then Some "bytes differ from the reference"
  else if String.length s <> expected_length n then
    Some (Printf.sprintf "%d bytes, expected %d" (String.length s) (expected_length n))
  else if String.length s > 9 then Some "longer than 9 bytes"
  else if Varint.get s 0 <> (n, String.length s) then Some "get (add n) <> n"
  else
    (* The same encoding read from inside a larger string. *)
    let framed = "\xff" ^ s ^ "\x80" in
    if Varint.get framed 1 <> (n, 1 + String.length s) then
      Some "get at an offset"
    else None

let edge_cases =
  [
    0; 127; 128; 16383; 16384; (1 lsl 56) - 1; 1 lsl 56; max_int; -1; min_int;
  ]

let fixed_cases () =
  List.iter
    (fun n ->
      match check n with
      | None -> ()
      | Some msg -> Alcotest.failf "%d: %s" n msg)
    edge_cases;
  Alcotest.(check (list int))
    "lengths" [ 1; 1; 2; 2; 3; 8; 9; 9; 9; 9 ]
    (List.map (fun n -> String.length (encode Varint.add n)) edge_cases)

let fails what s =
  match Varint.get s 0 with
  | exception Failure _ -> ()
  | v, p -> Alcotest.failf "%s: read %d, next %d" what v p

let malformed () =
  fails "empty" "";
  fails "lone continuation" "\x80";
  List.iter
    (fun n ->
      let s = encode Varint.add n in
      for cut = 0 to String.length s - 1 do
        fails (Printf.sprintf "%d cut at %d" n cut) (String.sub s 0 cut)
      done)
    edge_cases;
  fails "10-byte continuation" (String.make 9 '\x80' ^ "\x01");
  fails "10 bytes of 0xff" (String.make 10 '\xff')

let zigzag () =
  List.iter
    (fun (i, z) ->
      Alcotest.(check int) (Printf.sprintf "zigzag %d" i) z (Varint.zigzag i);
      Alcotest.(check int) (Printf.sprintf "unzigzag %d" z) i (Varint.unzigzag z))
    [ (0, 0); (-1, 1); (1, 2); (-2, 3); (max_int, -2); (min_int, -1) ]

(* Every magnitude: an int shifted right by 0..62 bits, signed or not. *)
let any_int =
  Gen.(
    oneof
      [
        int;
        map2 (fun n k -> n lsr k) int (int_range 0 62);
        map2 (fun n k -> -(n lsr k)) int (int_range 0 62);
        oneofl edge_cases;
      ])

let suite =
  ( "varint",
    [
      Alcotest.test_case "edge cases" `Quick fixed_cases;
      Alcotest.test_case "truncated and over-long input fail" `Quick malformed;
      Alcotest.test_case "zigzag" `Quick zigzag;
      QCheck_alcotest.to_alcotest
        (QCheck2.Test.make ~count:1000 ~name:"get (add n) = n, ceil(bits/7) bytes"
           ~print:string_of_int any_int (fun n ->
             match check n with
             | None -> true
             | Some msg -> QCheck2.Test.fail_reportf "%d: %s" n msg));
      QCheck_alcotest.to_alcotest
        (QCheck2.Test.make ~count:1000 ~name:"unzigzag (zigzag i) = i"
           ~print:string_of_int any_int (fun i ->
             Varint.unzigzag (Varint.zigzag i) = i
             && encode Varint.add_zigzag i = encode Varint.add (Varint.zigzag i)));
    ] )
