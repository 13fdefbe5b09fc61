open Crd_base
open Crd_vclock
open Crd_trace
open Crd_apoint
open Crd_detector

(* --- observability ------------------------------------------------- *)

let m_candidates =
  Crd_obs.counter ~help:"Predictive candidate pairs examined"
    "predict_candidates_total"

let m_closures =
  Crd_obs.counter ~help:"Sync-preserving closure fixpoints computed"
    "predict_closures_total"

let m_predicted =
  Crd_obs.counter ~help:"Distinct predicted (non-witnessed) races"
    "predict_predicted_total"

let m_witnessed =
  Crd_obs.counter ~help:"Distinct witnessed races seen by the predictive pass"
    "predict_witnessed_total"

let m_capped =
  Crd_obs.counter ~help:"Predictive candidates dropped by scan caps"
    "predict_capped_total"

let h_pass =
  Crd_obs.histogram ~help:"Predictive pass latency" "predict_seconds"

let fp_pass = Crd_fault.point "predict_pass"
let fp_closure = Crd_fault.point "predict_closure"

(* --- results ------------------------------------------------------- *)

type stats = {
  events : int;
  calls : int;
  candidates : int;
  closures : int;
  capped : int;
}

type result = {
  witnessed : Report.t list;
  predicted : Report.t list;
  stats : stats;
}

(* --- pass 1: observed-order scan ----------------------------------- *)

(* Per access point, the recorded touchers: [all] merged across threads
   and split [by_thread], both ascending by trace index. Own-component
   clocks are non-decreasing along a thread, so the latest toucher in
   thread [t] that happens-before a clock [vc] is found by binary
   search with the epoch test [own x <= vc(t)] — the same test RD2's
   [entry_leq] uses. *)
type phist = { all : int array; by_thread : (int, int array) Hashtbl.t }
type pobj = { repr : Repr.t; pts : phist Point.Tbl.t }

type prep = {
  n : int;
  nthreads : int;
  kind : int array;  (* 0 other, 1 call-with-spec, 2 acquire, 3 join *)
  tid_arr : int array;
  pos_arr : int array;  (* program-order position within the thread *)
  thread_events : int array array;
  thread_len : int array;
  fork_of : int array;  (* thread -> its Fork event, or -1 (root) *)
  join_tgt : int array;  (* join event -> joined thread, else -1 *)
  lock_of : int array;  (* acquire event -> dense lock index, else -1 *)
  acq_order : int array;  (* acquire event -> rank among its lock's acquires *)
  release_idx : int array;  (* acquire event -> matching release, or -1 *)
  lock_acquires : int array array;  (* dense lock -> acquires, ascending *)
  own : int array;  (* call event -> own-component pre-event clock *)
  call_vc : Vclock.t option array;  (* call event -> pre-event snapshot *)
  call_points : Point.t list array;
  call_action : Action.t option array;
  call_obj : int array;  (* call event -> object id, else min_int *)
  objs : (int, pobj) Hashtbl.t;
  maxconf : int array array;
      (* call event -> per thread, the thread position of its latest
         conflicting HB-predecessor there (-1 if none) *)
  witnessed : Report.t list;
}

let build ~spec_for trace =
  let n = Trace.length trace in
  let nthreads = max 1 (Trace.num_threads trace) in
  let translate = Repr.memo () in
  let failure = ref None in
  let repr_for o =
    match Option.map translate (spec_for o) with
    | None -> None
    | Some (Ok r) -> Some r
    | Some (Error e) ->
        failure := Some e;
        None
  in
  let hb = Hb.create () in
  let rd2 = Rd2.create ~mode:`Constant ~collect:false ~repr_for () in
  let witnessed_rev = ref [] in
  let kind = Array.make n 0 in
  let tid_arr = Array.make n 0 in
  let pos_arr = Array.make n 0 in
  let th_rev = Array.make nthreads [] in
  let thread_len = Array.make nthreads 0 in
  let fork_of = Array.make nthreads (-1) in
  let join_tgt = Array.make n (-1) in
  let lock_of = Array.make n (-1) in
  let acq_order = Array.make n (-1) in
  let release_idx = Array.make n (-1) in
  let lock_ids : (int, int) Hashtbl.t = Hashtbl.create 8 in
  let lock_acq_rev = ref [||] in
  let lock_open = ref [||] in
  let own = Array.make n 0 in
  let call_vc = Array.make n None in
  let call_points = Array.make n [] in
  let call_action = Array.make n None in
  let call_obj = Array.make n min_int in
  let objs : (int, pobj) Hashtbl.t = Hashtbl.create 64 in
  (* growable per-point histories, newest first until frozen *)
  let hist_rev :
      (int, (int list ref * (int, int list ref) Hashtbl.t) Point.Tbl.t)
      Hashtbl.t =
    Hashtbl.create 64
  in
  let dense_lock l =
    let key = Lock_id.id l in
    match Hashtbl.find_opt lock_ids key with
    | Some i -> i
    | None ->
        let i = Hashtbl.length lock_ids in
        Hashtbl.add lock_ids key i;
        let grow a init =
          if i < Array.length a then a
          else begin
            let a' = Array.make (max 4 (2 * (i + 1))) init in
            Array.blit a 0 a' 0 (Array.length a);
            a'
          end
        in
        lock_acq_rev := grow !lock_acq_rev [];
        lock_open := grow !lock_open (-1);
        i
  in
  Trace.iter trace ~f:(fun i (e : Event.t) ->
      let tid = Tid.to_int e.tid in
      let vc = Hb.advance hb e in
      tid_arr.(i) <- tid;
      pos_arr.(i) <- thread_len.(tid);
      thread_len.(tid) <- thread_len.(tid) + 1;
      th_rev.(tid) <- i :: th_rev.(tid);
      match e.op with
      | Event.Call a -> (
          witnessed_rev :=
            List.rev_append (Rd2.on_action rd2 ~index:i e.tid a vc) !witnessed_rev;
          match repr_for a.Action.obj with
          | None -> ()
          | Some repr ->
              let key = Obj_id.id a.Action.obj in
              let points = Repr.eta repr a in
              kind.(i) <- 1;
              own.(i) <- Vclock.get vc e.tid;
              call_vc.(i) <- Some (Vclock.copy vc);
              call_points.(i) <- points;
              call_action.(i) <- Some a;
              call_obj.(i) <- key;
              if not (Hashtbl.mem objs key) then begin
                Hashtbl.add objs key
                  { repr; pts = Point.Tbl.create 16 };
                Hashtbl.add hist_rev key (Point.Tbl.create 16)
              end;
              let h = Hashtbl.find hist_rev key in
              List.iter
                (fun pt ->
                  let all, per =
                    match Point.Tbl.find_opt h pt with
                    | Some cell -> cell
                    | None ->
                        let cell = (ref [], Hashtbl.create 4) in
                        Point.Tbl.add h pt cell;
                        cell
                  in
                  all := i :: !all;
                  match Hashtbl.find_opt per tid with
                  | Some l -> l := i :: !l
                  | None -> Hashtbl.add per tid (ref [ i ]))
                points)
      | Event.Acquire l ->
          let li = dense_lock l in
          kind.(i) <- 2;
          lock_of.(i) <- li;
          acq_order.(i) <- List.length !lock_acq_rev.(li);
          !lock_acq_rev.(li) <- i :: !lock_acq_rev.(li);
          !lock_open.(li) <- i
      | Event.Release l -> (
          match Hashtbl.find_opt lock_ids (Lock_id.id l) with
          | None -> ()
          | Some li ->
              if !lock_open.(li) >= 0 then begin
                release_idx.(!lock_open.(li)) <- i;
                !lock_open.(li) <- -1
              end)
      | Event.Fork u ->
          let u = Tid.to_int u in
          if u < nthreads && fork_of.(u) < 0 then fork_of.(u) <- i
      | Event.Join u ->
          let u = Tid.to_int u in
          kind.(i) <- 3;
          if u < nthreads then join_tgt.(i) <- u
      | Event.Read _ | Event.Write _ | Event.Begin | Event.End -> ());
  (match !failure with Some m -> failwith m | None -> ());
  (* freeze *)
  let thread_events =
    Array.map (fun l -> Array.of_list (List.rev l)) th_rev
  in
  let lock_acquires =
    Array.map (fun l -> Array.of_list (List.rev l)) !lock_acq_rev
  in
  let lock_acquires =
    Array.sub lock_acquires 0 (Hashtbl.length lock_ids)
  in
  Hashtbl.iter
    (fun key h ->
      let po = Hashtbl.find objs key in
      Point.Tbl.iter
        (fun pt (all, per) ->
          let by_thread = Hashtbl.create (Hashtbl.length per) in
          Hashtbl.iter
            (fun t l -> Hashtbl.add by_thread t (Array.of_list (List.rev !l)))
            per;
          Point.Tbl.add po.pts pt
            { all = Array.of_list (List.rev !all); by_thread })
        h)
    hist_rev;
  {
    n;
    nthreads;
    kind;
    tid_arr;
    pos_arr;
    thread_events;
    thread_len;
    fork_of;
    join_tgt;
    lock_of;
    acq_order;
    release_idx;
    lock_acquires;
    own;
    call_vc;
    call_points;
    call_action;
    call_obj;
    objs;
    maxconf = Array.make n [||];
    witnessed = List.rev !witnessed_rev;
  }

(* --- conflicting HB-predecessors ----------------------------------- *)

(* Largest index j with own.(arr.(j)) <= limit; own is non-decreasing
   along arr (one thread, ascending trace order). *)
let bsearch_le own arr limit =
  let lo = ref 0 and hi = ref (Array.length arr) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if own.(arr.(mid)) <= limit then lo := mid + 1 else hi := mid
  done;
  !lo - 1

let compute_maxconf prep y =
  if prep.kind.(y) = 1 then begin
    let po = Hashtbl.find prep.objs prep.call_obj.(y) in
    let vc = Option.get prep.call_vc.(y) in
    let my = prep.tid_arr.(y) in
    let arr = Array.make prep.nthreads (-1) in
    List.iter
      (fun pt ->
        List.iter
          (fun pt' ->
            match Point.Tbl.find_opt po.pts pt' with
            | None -> ()
            | Some h ->
                Hashtbl.iter
                  (fun t earr ->
                    if t <> my then begin
                      let limit = Vclock.get vc (Tid.of_int t) in
                      let j = bsearch_le prep.own earr limit in
                      if j >= 0 then begin
                        let x = earr.(j) in
                        if prep.pos_arr.(x) > arr.(t) then
                          arr.(t) <- prep.pos_arr.(x)
                      end
                    end)
                  h.by_thread)
          (Repr.conflicts po.repr pt))
      prep.call_points.(y);
    prep.maxconf.(y) <- arr
  end

(* --- the closure test ---------------------------------------------- *)

exception Forced

(* Is there a sound reordering in which [d] and [f] are both executable
   next? Compute the least event set C forced to execute before the
   pair can be enabled; the pair races iff neither endpoint is forced
   into C. The set is represented by one per-thread frontier (C is
   program-order downward-closed by construction), so membership tests
   and additions are O(1) and the fixpoint is linear in |C|. *)
let closure_admits prep d f =
  Crd_fault.inject fp_closure;
  let frontier = Array.make prep.nthreads 0 in
  let lmax = Array.make (Array.length prep.lock_acquires) (-1) in
  let stack = Stack.create () in
  let d_tid = prep.tid_arr.(d) and f_tid = prep.tid_arr.(f) in
  let d_pos = prep.pos_arr.(d) and f_pos = prep.pos_arr.(f) in
  let rec raise_to t p =
    let p = min p prep.thread_len.(t) in
    if p > frontier.(t) then begin
      if (t = d_tid && p > d_pos) || (t = f_tid && p > f_pos) then
        raise_notrace Forced;
      let old = frontier.(t) in
      frontier.(t) <- p;
      (* running any event of t requires its Fork to have run *)
      if old = 0 && prep.fork_of.(t) >= 0 then require prep.fork_of.(t);
      for q = old to p - 1 do
        Stack.push prep.thread_events.(t).(q) stack
      done
    end
  and require x = raise_to prep.tid_arr.(x) (prep.pos_arr.(x) + 1) in
  let enable x =
    (* behavior preservation for an executed call: all its HB-ordered
       conflicting predecessors must have run first. The race endpoints
       [d] and [f] themselves are exempt — they are enabled, not
       executed, so their return values (and in particular their mutual
       order, the race being tested) are unconstrained. *)
    let mc = prep.maxconf.(x) in
    if Array.length mc > 0 then
      Array.iteri (fun t p -> if p >= 0 then raise_to t (p + 1)) mc
  in
  let require_release a =
    let r = prep.release_idx.(a) in
    if r < 0 then raise_notrace Forced else require r
  in
  let process x =
    match prep.kind.(x) with
    | 1 -> enable x
    | 2 ->
        (* sync-preservation: acquires of one lock that both execute
           keep their observed order, and the earlier one's release
           must run before the later acquire *)
        let l = prep.lock_of.(x) in
        let k = prep.acq_order.(x) in
        if k < lmax.(l) then require_release x
        else if k > lmax.(l) then begin
          let old = lmax.(l) in
          lmax.(l) <- k;
          let acqs = prep.lock_acquires.(l) in
          for j = max 0 old to k - 1 do
            let a' = acqs.(j) in
            if frontier.(prep.tid_arr.(a')) > prep.pos_arr.(a') then
              require_release a'
          done
        end
    | 3 ->
        let u = prep.join_tgt.(x) in
        if u >= 0 then raise_to u prep.thread_len.(u)
    | _ -> ()
  in
  try
    raise_to d_tid d_pos;
    raise_to f_tid f_pos;
    if prep.fork_of.(d_tid) >= 0 then require prep.fork_of.(d_tid);
    if prep.fork_of.(f_tid) >= 0 then require prep.fork_of.(f_tid);
    while not (Stack.is_empty stack) do
      process (Stack.pop stack)
    done;
    true
  with Forced -> false

let is_race prep d f =
  match (prep.call_vc.(d), prep.call_vc.(f)) with
  | Some vd, Some vf when Vclock.concurrent vd vf ->
      (* already concurrent as observed: the recorded interleaving
         itself realizes the pair *)
      true
  | _ ->
      Crd_obs.Counter.incr m_closures;
      closure_admits prep d f

(* --- reports -------------------------------------------------------- *)

let mk_report prep ~d ~f ~pt_f ~pt_d =
  let repr = (Hashtbl.find prep.objs prep.call_obj.(f)).repr in
  let af = Option.get prep.call_action.(f) in
  let ad = Option.get prep.call_action.(d) in
  {
    Report.index = f;
    obj = af.Action.obj;
    tid = Tid.of_int prep.tid_arr.(f);
    action = af;
    point = Repr.point_desc repr pt_f;
    conflicting = Repr.point_desc repr pt_d;
    prior = Some (Tid.of_int prep.tid_arr.(d), ad);
  }

(* --- candidate enumeration ------------------------------------------ *)

type candidate = { d : int; f : int; pt_f : Point.t; pt_d : Point.t; fp : int64 }

(* first index with arr.(i) >= f *)
let lower_bound arr f =
  let lo = ref 0 and hi = ref (Array.length arr) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if arr.(mid) < f then lo := mid + 1 else hi := mid
  done;
  !lo

let enumerate prep ~scan_limit ~max_attempts ~witnessed_fps =
  let attempts : (int64, int) Hashtbl.t = Hashtbl.create 64 in
  let capped = ref 0 in
  let cands = ref [] in
  let count = ref 0 in
  for f = 0 to prep.n - 1 do
    if prep.kind.(f) = 1 then begin
      let po = Hashtbl.find prep.objs prep.call_obj.(f) in
      let f_tid = prep.tid_arr.(f) in
      List.iter
        (fun pt_f ->
          List.iter
            (fun pt' ->
              match Point.Tbl.find_opt po.pts pt' with
              | None -> ()
              | Some h ->
                  let j = ref (lower_bound h.all f - 1) in
                  let scanned = ref 0 in
                  while !j >= 0 && !scanned < scan_limit do
                    let d = h.all.(!j) in
                    if prep.tid_arr.(d) <> f_tid then begin
                      incr scanned;
                      incr count;
                      let fp =
                        Report.fingerprint
                          (mk_report prep ~d ~f ~pt_f ~pt_d:pt')
                      in
                      if not (Hashtbl.mem witnessed_fps fp) then begin
                        let c =
                          Option.value ~default:0 (Hashtbl.find_opt attempts fp)
                        in
                        if c < max_attempts then begin
                          Hashtbl.replace attempts fp (c + 1);
                          cands := { d; f; pt_f; pt_d = pt'; fp } :: !cands
                        end
                        else incr capped
                      end
                    end;
                    decr j
                  done;
                  if !j >= 0 then capped := !capped + (!j + 1))
            (Repr.conflicts po.repr pt_f))
        prep.call_points.(f)
    end
  done;
  (Array.of_list (List.rev !cands), !count, !capped)

(* --- parallel driver ------------------------------------------------ *)

(* Run [f lo hi] over disjoint chunks of [0, n) on [jobs] domains. All
   shared structures are read-only except arrays written at disjoint
   indices; the first exception (if any) is re-raised in the caller. *)
let parallel_chunks ~jobs n f =
  let jobs = max 1 (min jobs n) in
  if jobs = 1 then f 0 n
  else begin
    let chunk = (n + jobs - 1) / jobs in
    let doms =
      List.init (jobs - 1) (fun i ->
          let lo = (i + 1) * chunk in
          let hi = min n (lo + chunk) in
          Domain.spawn (fun () ->
              try
                if lo < hi then f lo hi;
                None
              with e -> Some e))
    in
    let mine = (try f 0 (min chunk n); None with e -> Some e) in
    let first =
      List.fold_left
        (fun acc d ->
          match Domain.join d with Some e when acc = None -> Some e | _ -> acc)
        mine doms
    in
    match first with Some e -> raise e | None -> ()
  end

(* --- entry points --------------------------------------------------- *)

let analyze ?(jobs = 1) ?(scan_limit = 64) ?(max_attempts = 8) ~spec_for trace
    =
  Crd_obs.time h_pass @@ fun () ->
  try
    Crd_fault.inject fp_pass;
    let prep = build ~spec_for trace in
    parallel_chunks ~jobs prep.n (fun lo hi ->
        for y = lo to hi - 1 do
          compute_maxconf prep y
        done);
    let witnessed_fps : (int64, unit) Hashtbl.t = Hashtbl.create 64 in
    List.iter
      (fun r -> Hashtbl.replace witnessed_fps (Report.fingerprint r) ())
      prep.witnessed;
    let cands, examined, capped =
      enumerate prep ~scan_limit ~max_attempts ~witnessed_fps
    in
    Crd_obs.Counter.add m_candidates examined;
    let verdict = Array.make (Array.length cands) false in
    parallel_chunks ~jobs (Array.length cands) (fun lo hi ->
        for i = lo to hi - 1 do
          verdict.(i) <- is_race prep cands.(i).d cands.(i).f
        done);
    (* claim fingerprints in enumeration order: deterministic for any
       [jobs], first realizable pair becomes the sample report *)
    let claimed : (int64, unit) Hashtbl.t = Hashtbl.create 16 in
    let predicted = ref [] in
    Array.iteri
      (fun i c ->
        if verdict.(i) && not (Hashtbl.mem claimed c.fp) then begin
          Hashtbl.add claimed c.fp ();
          predicted :=
            mk_report prep ~d:c.d ~f:c.f ~pt_f:c.pt_f ~pt_d:c.pt_d
            :: !predicted
        end)
      cands;
    let predicted = List.rev !predicted in
    let calls =
      Array.fold_left (fun acc k -> if k = 1 then acc + 1 else acc) 0 prep.kind
    in
    Crd_obs.Counter.add m_witnessed (Hashtbl.length witnessed_fps);
    Crd_obs.Counter.add m_predicted (List.length predicted);
    Crd_obs.Counter.add m_capped capped;
    Ok
      {
        witnessed = prep.witnessed;
        predicted;
        stats =
          {
            events = prep.n;
            calls;
            candidates = examined;
            closures = Array.length cands;
            capped;
          };
      }
  with
  | Crd_fault.Injected m -> Error ("fault injected: " ^ m)
  | Failure m -> Error m
  | Invalid_argument m -> Error m

let analyze_stdspecs ?jobs ?scan_limit ?max_attempts trace =
  analyze ?jobs ?scan_limit ?max_attempts
    ~spec_for:Crd_stdspecs.Stdspecs.spec_for trace

let racing_pairs ~spec_for trace =
  try
    let prep = build ~spec_for trace in
    for y = 0 to prep.n - 1 do
      compute_maxconf prep y
    done;
    let seen : (int * int, unit) Hashtbl.t = Hashtbl.create 64 in
    let out = ref [] in
    for f = 0 to prep.n - 1 do
      if prep.kind.(f) = 1 then begin
        let po = Hashtbl.find prep.objs prep.call_obj.(f) in
        let f_tid = prep.tid_arr.(f) in
        List.iter
          (fun pt_f ->
            List.iter
              (fun pt' ->
                match Point.Tbl.find_opt po.pts pt' with
                | None -> ()
                | Some h ->
                    Array.iter
                      (fun d ->
                        if
                          d < f
                          && prep.tid_arr.(d) <> f_tid
                          && not (Hashtbl.mem seen (d, f))
                        then begin
                          Hashtbl.add seen (d, f) ();
                          if is_race prep d f then out := (d, f) :: !out
                        end)
                      h.all)
              (Repr.conflicts po.repr pt_f))
          prep.call_points.(f)
      end
    done;
    Ok (List.sort compare !out)
  with
  | Crd_fault.Injected m -> Error ("fault injected: " ^ m)
  | Failure m -> Error m
  | Invalid_argument m -> Error m
