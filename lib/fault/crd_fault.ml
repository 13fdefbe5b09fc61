exception Injected of string

type policy =
  | Off
  | Prob of float
  | Once
  | Nth of int
  | Every of int

(* ------------------------------------------------------------------ *)
(* Stateless SplitMix64 decision streams                               *)
(* ------------------------------------------------------------------ *)

let golden = 0x9E3779B97F4A7C15L

(* The SplitMix64 output function: state n of a stream seeded at [s] is
   [s + n * golden], so the value at any hit index is computable without
   mutable generator state — decisions commute with thread scheduling. *)
let finalize z =
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L
  in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL
  in
  Int64.logxor z (Int64.shift_right_logical z 31)

let value_at stream n =
  finalize (Int64.add stream (Int64.mul golden (Int64.of_int n)))

(* 53 high bits into [0,1). *)
let u01 v =
  Int64.to_float (Int64.shift_right_logical v 11) /. 9007199254740992.0

(* FNV-1a so a point's stream depends only on its name (stable across
   runs and platforms, unlike [Hashtbl.hash]). *)
let fnv64 s =
  let h = ref 0xCBF29CE484222325L in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h 0x100000001B3L)
    s;
  !h

(* ------------------------------------------------------------------ *)
(* Registry                                                            *)
(* ------------------------------------------------------------------ *)

type point = {
  pname : string;
  policy : policy Atomic.t;
  hits : int Atomic.t;
  injected : int Atomic.t;
  metric : Crd_obs.Counter.t;
}

let default_seed = 1L
let global_seed = Atomic.make default_seed
let registry : (string, point) Hashtbl.t = Hashtbl.create 16
let mu = Mutex.create ()

let m_injected_total =
  Crd_obs.counter ~help:"Faults injected across all points"
    "fault_injected_total"

let valid_name s =
  String.length s > 0
  && String.for_all
       (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true | _ -> false)
       s

let point pname =
  if not (valid_name pname) then
    invalid_arg
      (Printf.sprintf "Crd_fault.point: bad name %S (want [A-Za-z0-9_]+)" pname);
  Mutex.lock mu;
  let p =
    match Hashtbl.find_opt registry pname with
    | Some p -> p
    | None ->
        let p =
          {
            pname;
            policy = Atomic.make Off;
            hits = Atomic.make 0;
            injected = Atomic.make 0;
            metric =
              Crd_obs.counter
                ~help:("Faults injected at the " ^ pname ^ " point")
                ("fault_injected_" ^ pname ^ "_total");
          }
        in
        Hashtbl.add registry pname p;
        p
  in
  Mutex.unlock mu;
  p

let name p = p.pname
let set_policy p policy = Atomic.set p.policy policy
let policy p = Atomic.get p.policy
let hits p = Atomic.get p.hits
let injected_count p = Atomic.get p.injected
let seed () = Atomic.get global_seed

let stream_of p = finalize (Int64.logxor (Atomic.get global_seed) (fnv64 p.pname))

let decide p n =
  match Atomic.get p.policy with
  | Off -> false
  | Once -> n = 1
  | Nth k -> n = k
  | Every k -> k > 0 && n mod k = 0
  | Prob pr -> u01 (value_at (stream_of p) n) < pr

let fire p =
  if Atomic.get p.policy = Off then false
  else begin
    let n = 1 + Atomic.fetch_and_add p.hits 1 in
    let inj = decide p n in
    if inj then begin
      Atomic.incr p.injected;
      Crd_obs.Counter.incr p.metric;
      Crd_obs.Counter.incr m_injected_total
    end;
    inj
  end

let inject p = if fire p then raise (Injected p.pname)

(* ------------------------------------------------------------------ *)
(* Configuration                                                       *)
(* ------------------------------------------------------------------ *)

let iter_points f =
  Mutex.lock mu;
  let pts = Hashtbl.fold (fun _ p acc -> p :: acc) registry [] in
  Mutex.unlock mu;
  List.iter f pts

let zero p =
  Atomic.set p.hits 0;
  Atomic.set p.injected 0

let reset () =
  Atomic.set global_seed default_seed;
  iter_points (fun p ->
      Atomic.set p.policy Off;
      zero p)

let active () =
  let some = ref false in
  iter_points (fun p -> if Atomic.get p.policy <> Off then some := true);
  !some

let summary () =
  let acc = ref [] in
  iter_points (fun p ->
      acc :=
        (p.pname, Atomic.get p.policy, Atomic.get p.hits, Atomic.get p.injected)
        :: !acc);
  List.sort (fun (a, _, _, _) (b, _, _, _) -> String.compare a b) !acc

let parse_policy s =
  let prefixed prefix =
    let lp = String.length prefix in
    if String.length s > lp && String.sub s 0 lp = prefix then
      Some (String.sub s lp (String.length s - lp))
    else None
  in
  match s with
  | "off" -> Ok Off
  | "once" -> Ok Once
  | _ -> (
      match prefixed "p:" with
      | Some f -> (
          match float_of_string_opt f with
          | Some p when p >= 0.0 && p <= 1.0 -> Ok (Prob p)
          | _ -> Error (Printf.sprintf "bad probability %S (want 0..1)" f))
      | None -> (
          match prefixed "nth:" with
          | Some n -> (
              match int_of_string_opt n with
              | Some k when k >= 1 -> Ok (Nth k)
              | _ -> Error (Printf.sprintf "bad hit index %S (want >= 1)" n))
          | None -> (
              match prefixed "every:" with
              | Some n -> (
                  match int_of_string_opt n with
                  | Some k when k >= 1 -> Ok (Every k)
                  | _ ->
                      Error (Printf.sprintf "bad period %S (want >= 1)" n))
              | None ->
                  Error
                    (Printf.sprintf
                       "bad policy %S (want p:FLOAT, once, nth:N, every:N or \
                        off)"
                       s))))

(* Parse everything before touching any state, so a bad spec leaves the
   previous configuration untouched. *)
let parse spec =
  let clauses =
    String.split_on_char ',' spec
    |> List.map String.trim
    |> List.filter (fun c -> c <> "")
  in
  let rec go seed policies = function
    | [] -> Ok (seed, List.rev policies)
    | clause :: rest -> (
        match String.index_opt clause '=' with
        | None ->
            Error
              (Printf.sprintf "clause %S: expected seed=INT or point=policy"
                 clause)
        | Some i -> (
            let key = String.sub clause 0 i in
            let value =
              String.sub clause (i + 1) (String.length clause - i - 1)
            in
            if key = "seed" then
              match Int64.of_string_opt value with
              | Some s -> go (Some s) policies rest
              | None -> Error (Printf.sprintf "bad seed %S" value)
            else if not (valid_name key) then
              Error
                (Printf.sprintf "bad point name %S (want [A-Za-z0-9_]+)" key)
            else
              match parse_policy value with
              | Ok p -> go seed ((key, p) :: policies) rest
              | Error e -> Error (Printf.sprintf "%s: %s" key e)))
  in
  go None [] clauses

let configure spec =
  match parse spec with
  | Error _ as e -> e
  | Ok (seed, policies) ->
      reset ();
      Atomic.set global_seed (Option.value ~default:default_seed seed);
      List.iter (fun (name, pol) -> set_policy (point name) pol) policies;
      Ok ()

let configure_env () =
  match Sys.getenv_opt "CRD_FAULTS" with
  | None | Some "" -> Ok ()
  | Some spec -> configure spec
