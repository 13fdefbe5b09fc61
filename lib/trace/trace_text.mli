(** Textual trace format.

    One event per line, [#] comments, blank lines ignored:

    {v
    T0 fork T1
    T1 call m.put("a.com", @1) / nil
    T0 read global:counter
    T2 write field:m.count
    T1 read slot:m.data["a.com"]
    T0 acquire lk
    T0 release lk
    T0 join T1
    v}

    Object and lock names are interned by the parser: the same textual
    name always maps to the same identity within one parse. [print] and
    [parse] are mutually inverse up to object/lock renumbering. *)

val print : Trace.t Fmt.t

val to_string : Trace.t -> string

val parse : string -> (Trace.t, string) result
(** Parse a whole trace from a string. Errors carry a line number. *)

val iter_channel : in_channel -> f:(Event.t -> unit) -> (unit, string) result
(** Stream events from a channel line-by-line, calling [f] on each;
    memory stays O(longest line + intern tables) regardless of input
    size. Stops at the first malformed line. *)

val parse_file : string -> (Trace.t, string) result
(** Parses the file line by line: large traces are never loaded into a
    single string. *)
