(* In-memory spans for the traced run. Every span is recorded from the
   harness's own code, around a call into one of the repository's public
   functions; nothing inside rd2 is instrumented. A span's layer is its
   name up to the first '.', so "rd2.on_action" belongs to layer "rd2".
   Spans are kept in memory and written out once, at exit. *)

type span = {
  id : int;
  parent : int;  (** 0 for a root *)
  req : int;  (** the request (check run, session, replayed input) *)
  name : string;
  start_ns : float;
  mutable end_ns : float;
  minor0 : float;
  mutable minor1 : float;  (** minor words allocated by the calling domain *)
}

let enabled = ref false
let mu = Mutex.create ()
let recorded : span list ref = ref []
let next_id = ref 0
(* Nanoseconds since the harness started: small enough to print exactly. *)
let origin = Unix.gettimeofday ()
let now_ns () = (Unix.gettimeofday () -. origin) *. 1e9

let layer s =
  match String.index_opt s.name '.' with
  | Some i -> String.sub s.name 0 i
  | None -> s.name

let duration_ns s = s.end_ns -. s.start_ns

(* [with_span ~req name f] runs [f id], where [id] parents any spans
   opened inside. With tracing off it only runs [f]. *)
let with_span ?(parent = 0) ~req name f =
  if not !enabled then f 0
  else begin
    Mutex.lock mu;
    incr next_id;
    let s =
      {
        id = !next_id;
        parent;
        req;
        name;
        start_ns = now_ns ();
        end_ns = 0.;
        minor0 = Gc.minor_words ();
        minor1 = 0.;
      }
    in
    recorded := s :: !recorded;
    Mutex.unlock mu;
    Fun.protect
      ~finally:(fun () ->
        s.minor1 <- Gc.minor_words ();
        s.end_ns <- now_ns ())
      (fun () -> f s.id)
  end

let all () = List.rev !recorded

(* Self time: a span's duration minus the part its children cover. The
   harness opens children sequentially on the parent's thread, so the
   covered part is the sum of the children's durations. *)
let self_ns spans =
  let covered = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        Hashtbl.replace covered s.parent
          (duration_ns s
          +. Option.value ~default:0. (Hashtbl.find_opt covered s.parent)))
    spans;
  fun s ->
    duration_ns s -. Option.value ~default:0. (Hashtbl.find_opt covered s.id)

let append_jsonl path =
  Out_channel.with_open_gen [ Open_append; Open_creat; Open_text ] 0o644 path (fun oc ->
      List.iter
        (fun s ->
          output_string oc
            (Json.to_string
               (Json.Obj
                  [
                    ("name", Json.Str s.name);
                    ("id", Json.Num (float_of_int s.id));
                    ("parent", Json.Num (float_of_int s.parent));
                    ("req", Json.Num (float_of_int s.req));
                    ("start_ns", Json.Num (Float.round s.start_ns));
                    ("end_ns", Json.Num (Float.round s.end_ns));
                  ]));
          output_char oc '\n')
        (all ()))

(* Sets the recorded spans back to [spans], as returned by [all]. Ids
   keep counting, so they stay unique across one --spans file. *)
let restore spans =
  Mutex.lock mu;
  recorded := List.rev spans;
  Mutex.unlock mu

(* What recording one span costs, measured on empty spans that are then
   dropped again: the tracing overhead of a traced run is this times its
   span count. *)
let cost_ns () =
  let saved = !recorded and saved_id = !next_id in
  let n = 10_000 in
  let t0 = now_ns () in
  for _ = 1 to n do
    with_span ~req:(-1) "trace.calibrate" ignore
  done;
  let cost = (now_ns () -. t0) /. float_of_int n in
  recorded := saved;
  next_id := saved_id;
  cost
