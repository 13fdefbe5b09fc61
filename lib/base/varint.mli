(** LEB128 varints and zigzag on OCaml's 63-bit ints — the integer
    encoding of the CRDW trace stream, the racedb records and the
    session and sync protocols. *)

val add : Buffer.t -> int -> unit
(** LEB128 over the unsigned bit pattern of [n]: 7 bits per byte, low
    group first, at most 9 bytes. A value below 128 is one byte. *)

val get : string -> int -> int * int
(** [get s pos] reads one {!add} encoding starting at [pos] and returns
    [(value, next_pos)].
    @raise Failure on truncated or over-long (10+ byte) input. *)

val zigzag : int -> int
(** Signed→unsigned bijection on the 63-bit patterns; small negatives
    stay small on the wire. *)

val unzigzag : int -> int
(** Inverse of {!zigzag}. *)

val add_zigzag : Buffer.t -> int -> unit
(** [add b (zigzag i)]. *)
