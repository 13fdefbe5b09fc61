open Crd_base
open Crd_trace

type skew = Uniform | Zipf of float

type config = {
  threads : int;
  objects : int;
  events : int;
  skew : skew;
  mix : (string * int) list;
  sync_period : int;
  key_space : int;
}

let default_mix = [ ("dictionary", 6); ("set", 3); ("counter", 1) ]

let default ~events =
  {
    threads = 8;
    objects = 1024;
    events;
    skew = Zipf 0.9;
    mix = default_mix;
    sync_period = 64;
    key_space = 16;
  }

let skew_to_string = function
  | Uniform -> "uniform"
  | Zipf theta -> Printf.sprintf "zipf:%g" theta

let skew_of_string s =
  match String.lowercase_ascii s with
  | "uniform" -> Ok Uniform
  | "zipf" -> Ok (Zipf 0.9)
  | s when String.length s > 5 && String.sub s 0 5 = "zipf:" -> (
      match float_of_string_opt (String.sub s 5 (String.length s - 5)) with
      | Some theta when theta > 0. -> Ok (Zipf theta)
      | _ -> Error (Printf.sprintf "invalid zipf exponent in %S" s))
  | _ -> Error (Printf.sprintf "unknown skew %S (uniform | zipf:THETA)" s)

let known_specs =
  [ "dictionary"; "set"; "counter"; "register"; "fifo"; "bag" ]

let mix_of_string s =
  let parse_one part =
    match String.split_on_char '=' (String.trim part) with
    | [ name; w ] -> (
        let name = String.trim name in
        if not (List.mem name known_specs) then
          Error (Printf.sprintf "unknown spec %S in mix" name)
        else
          match int_of_string_opt (String.trim w) with
          | Some w when w > 0 -> Ok (name, w)
          | _ -> Error (Printf.sprintf "invalid weight in %S" part))
    | _ -> Error (Printf.sprintf "expected NAME=WEIGHT, got %S" part)
  in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | p :: rest -> (
        match parse_one p with
        | Ok kv -> go (kv :: acc) rest
        | Error _ as e -> e)
  in
  match String.split_on_char ',' s with
  | [] | [ "" ] -> Error "empty mix"
  | parts -> go [] parts

let mix_to_string mix =
  String.concat ","
    (List.map (fun (n, w) -> Printf.sprintf "%s=%d" n w) mix)

let pp_config ppf c =
  Fmt.pf ppf
    "events=%d threads=%d objects=%d skew=%s mix=%s sync_period=%d \
     key_space=%d"
    c.events c.threads c.objects (skew_to_string c.skew)
    (mix_to_string c.mix) c.sync_period c.key_space

(* Per-object executable models, so every generated action carries the
   arguments and returns its specification expects: the commutativity
   conditions of the stdspecs are all return-sensitive (e.g. two
   [set.add]s commute only via their membership-reporting returns), so a
   generator that invented returns would produce nonsense race sets. *)
type ostate =
  | Dict of Value.t array (* key -> value; Nil = absent *)
  | Set of bool array
  | Counter of { mutable n : int }
  | Register of { mutable v : Value.t }
  | Fifo of Value.t Queue.t
  | Bag of { counts : int array; mutable total : int }

let validate c =
  if c.events <= 0 then invalid_arg "Synth: events must be positive";
  if c.threads < 0 then invalid_arg "Synth: threads must be non-negative";
  if c.objects <= 0 then invalid_arg "Synth: objects must be positive";
  if c.sync_period <= 0 then invalid_arg "Synth: sync_period must be positive";
  if c.key_space <= 0 then invalid_arg "Synth: key_space must be positive";
  if c.mix = [] then invalid_arg "Synth: empty spec mix";
  List.iter
    (fun (name, w) ->
      if not (List.mem name known_specs) then
        invalid_arg (Printf.sprintf "Synth: unknown spec %S in mix" name);
      if w <= 0 then
        invalid_arg (Printf.sprintf "Synth: non-positive weight for %S" name))
    c.mix;
  (match c.skew with
  | Zipf theta when theta <= 0. ->
      invalid_arg "Synth: zipf exponent must be positive"
  | _ -> ())

(* Zipf(theta) over object ranks: rank 0 is the hottest object. Sampling
   is a binary search over the precomputed CDF — O(log objects) per
   event, allocation-free. *)
let make_sampler rng c =
  match c.skew with
  | Uniform -> fun () -> Prng.int rng c.objects
  | Zipf theta ->
      let cdf = Array.make c.objects 0. in
      let acc = ref 0. in
      for i = 0 to c.objects - 1 do
        acc := !acc +. (1. /. Float.pow (float_of_int (i + 1)) theta);
        cdf.(i) <- !acc
      done;
      let total = !acc in
      fun () ->
        let u = Prng.float rng total in
        let lo = ref 0 and hi = ref (c.objects - 1) in
        while !lo < !hi do
          let mid = (!lo + !hi) / 2 in
          if cdf.(mid) < u then lo := mid + 1 else hi := mid
        done;
        !lo

let iter ?(seed = 42L) config ~f =
  validate config;
  let c = config in
  let rng = Prng.make seed in
  (* Interned values: the hot loop reuses these instead of allocating a
     fresh [Value.Int] per event. *)
  let vals = Array.init (max 2 c.key_space) (fun k -> Value.Int k) in
  let vtrue = Value.Bool true and vfalse = Value.Bool false in
  let vbool b = if b then vtrue else vfalse in
  let vint n =
    if n >= 0 && n < Array.length vals then vals.(n) else Value.Int n
  in
  (* Deterministic object table: object [i]'s kind cycles through the
     mix expanded by weight, its identity and name are functions of [i]
     alone, so two runs with equal configs agree on every object. *)
  let kinds =
    Array.concat
      (List.map (fun (name, w) -> Array.make w name) c.mix)
  in
  let kind_of i = kinds.(i mod Array.length kinds) in
  let objs =
    Array.init c.objects (fun i ->
        Obj_id.make ~name:(Printf.sprintf "%s:s%d" (kind_of i) i) i)
  in
  let locs =
    Array.init c.objects (fun i -> Mem_loc.Field (objs.(i), "state"))
  in
  let states =
    Array.init c.objects (fun i ->
        match kind_of i with
        | "dictionary" -> Dict (Array.make c.key_space Value.Nil)
        | "set" -> Set (Array.make c.key_space false)
        | "counter" -> Counter { n = 0 }
        | "register" -> Register { v = Value.Nil }
        | "fifo" -> Fifo (Queue.create ())
        | "bag" -> Bag { counts = Array.make c.key_space 0; total = 0 }
        | k -> invalid_arg ("Synth: unknown spec " ^ k))
  in
  let nlocks = min 64 c.objects in
  let locks =
    Array.init nlocks (fun i -> Lock_id.make ~name:(Printf.sprintf "l%d" i) i)
  in
  let lock_of i = locks.(i mod nlocks) in
  let sample = make_sampler rng c in
  (* One consistent action on object [i], updating its model state. *)
  let action i =
    let obj = objs.(i) in
    let key () = Prng.int rng c.key_space in
    match states.(i) with
    | Dict data ->
        let r = Prng.int rng 10 in
        if r < 4 then begin
          let k = key () and v = vals.(Prng.int rng c.key_space) in
          let prev = data.(k) in
          data.(k) <- v;
          Action.make ~obj ~meth:"put" ~args:[ vals.(k); v ] ~rets:[ prev ] ()
        end
        else if r < 9 then
          let k = key () in
          Action.make ~obj ~meth:"get" ~args:[ vals.(k) ] ~rets:[ data.(k) ] ()
        else
          let n =
            Array.fold_left
              (fun acc v -> if Value.is_nil v then acc else acc + 1)
              0 data
          in
          Action.make ~obj ~meth:"size" ~rets:[ vint n ] ()
    | Set data ->
        let r = Prng.int rng 10 in
        if r < 3 then begin
          let k = key () in
          let was = data.(k) in
          data.(k) <- true;
          Action.make ~obj ~meth:"add" ~args:[ vals.(k) ] ~rets:[ vbool was ] ()
        end
        else if r < 5 then begin
          let k = key () in
          let was = data.(k) in
          data.(k) <- false;
          Action.make ~obj ~meth:"remove" ~args:[ vals.(k) ]
            ~rets:[ vbool was ] ()
        end
        else if r < 9 then
          let k = key () in
          Action.make ~obj ~meth:"contains" ~args:[ vals.(k) ]
            ~rets:[ vbool data.(k) ] ()
        else
          let n =
            Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 data
          in
          Action.make ~obj ~meth:"size" ~rets:[ vint n ] ()
    | Counter s ->
        if Prng.int rng 5 < 4 then begin
          let d = 1 + Prng.int rng 4 in
          s.n <- s.n + d;
          Action.make ~obj ~meth:"add" ~args:[ vint d ] ()
        end
        else Action.make ~obj ~meth:"read" ~rets:[ vint s.n ] ()
    | Register s ->
        if Prng.int rng 2 = 0 then begin
          let v = vals.(Prng.int rng c.key_space) in
          s.v <- v;
          Action.make ~obj ~meth:"write" ~args:[ v ] ()
        end
        else Action.make ~obj ~meth:"read" ~rets:[ s.v ] ()
    | Fifo q ->
        let r = Prng.int rng 10 in
        if r < 4 then begin
          let v = vals.(Prng.int rng c.key_space) in
          Queue.push v q;
          Action.make ~obj ~meth:"enq" ~args:[ v ] ()
        end
        else if r < 8 then
          let v = match Queue.take_opt q with Some v -> v | None -> Value.Nil in
          Action.make ~obj ~meth:"deq" ~rets:[ v ] ()
        else
          let v = match Queue.peek_opt q with Some v -> v | None -> Value.Nil in
          Action.make ~obj ~meth:"peek" ~rets:[ v ] ()
    | Bag s ->
        let r = Prng.int rng 10 in
        if r < 4 then begin
          let k = key () in
          s.counts.(k) <- s.counts.(k) + 1;
          s.total <- s.total + 1;
          Action.make ~obj ~meth:"add" ~args:[ vals.(k) ] ()
        end
        else if r < 7 then begin
          let k = key () in
          let ok = s.counts.(k) > 0 in
          if ok then begin
            s.counts.(k) <- s.counts.(k) - 1;
            s.total <- s.total - 1
          end;
          Action.make ~obj ~meth:"remove" ~args:[ vals.(k) ]
            ~rets:[ vbool ok ] ()
        end
        else if r < 9 then
          let k = key () in
          Action.make ~obj ~meth:"count" ~args:[ vals.(k) ]
            ~rets:[ vint s.counts.(k) ] ()
        else Action.make ~obj ~meth:"size" ~rets:[ vint s.total ] ()
  in
  (* Thread structure: main forks the workers, the body interleaves
     their operations, main joins them — 2 * threads structural events,
     clamped so the requested event count is always exact. *)
  let nthreads = max 0 (min c.threads (c.events / 3)) in
  let tids = Array.init nthreads (fun i -> Tid.of_int (i + 1)) in
  for i = 0 to nthreads - 1 do
    f (Event.fork Tid.main tids.(i))
  done;
  let body = c.events - (2 * nthreads) in
  let pick_tid () =
    if nthreads = 0 then Tid.main else tids.(Prng.int rng nthreads)
  in
  let emitted = ref 0 in
  while !emitted < body do
    let tid = pick_tid () in
    let remaining = body - !emitted in
    if remaining >= 3 && Prng.int rng c.sync_period = 0 then begin
      (* Lock-protected action: exercises acquire/release edges in the
         happens-before pass and orders contending critical sections. *)
      let i = sample () in
      let l = lock_of i in
      f (Event.acquire tid l);
      f (Event.call tid (action i));
      f (Event.release tid l);
      emitted := !emitted + 3
    end
    else begin
      (* Every fourth plain slot touches the object's backing field so
         the read-write detectors see the same contention skew. *)
      let i = sample () in
      (if !emitted land 3 = 3 then
         let loc = locs.(i) in
         f
           (if Prng.bool rng then Event.write tid loc else Event.read tid loc)
       else f (Event.call tid (action i)));
      incr emitted
    end
  done;
  for i = 0 to nthreads - 1 do
    f (Event.join Tid.main tids.(i))
  done

let generate ?seed config =
  let trace = Trace.create () in
  iter ?seed config ~f:(Trace.append trace);
  assert (Trace.length trace = config.events);
  trace
