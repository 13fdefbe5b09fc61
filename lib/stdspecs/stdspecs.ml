open Crd_spec

(* Generated from specs/dictionary.crd and specs/set.crd (see dune). *)
let dictionary_src = Spec_files.dictionary
let set_src = Spec_files.set

let counter_src =
  {|
object counter {
  method add(n);
  method read() / v;

  commutes add(n1) <> add(n2) when true;
  commutes add(n1) <> read() / v2 when false;
  commutes read() / v1 <> read() / v2 when true;
}
|}

let register_src =
  {|
object register {
  method write(v);
  method read() / v;

  commutes write(v1) <> write(v2) when false;
  commutes write(v1) <> read() / v2 when false;
  commutes read() / v1 <> read() / v2 when true;
}
|}

let fifo_src =
  {|
object fifo {
  method enq(x);
  method deq() / x;
  method peek() / x;

  commutes enq(x1) <> enq(x2) when false;
  commutes enq(x1) <> deq() / x2 when false;
  commutes enq(x1) <> peek() / x2 when x1 != x2 && x2 != nil;
  commutes deq() / x1 <> deq() / x2 when x1 == nil && x2 == nil;
  commutes deq() / x1 <> peek() / x2 when x1 == nil && x2 == nil;
  commutes peek() / x1 <> peek() / x2 when true;
}
|}

let bag_src =
  {|
object bag {
  method add(x);
  method remove(x) / ok;
  method count(x) / n;
  method size() / r;

  // Multiset insertions always commute (unlike set insertions, which
  // observe prior membership through their return value).
  commutes add(x1) <> add(x2) when true;
  commutes add(x1) <> remove(x2) / ok2 when x1 != x2;
  commutes add(x1) <> count(x2) / n2 when x1 != x2;
  commutes add(x1) <> size() / r2 when false;
  commutes remove(x1) / ok1 <> remove(x2) / ok2
    when x1 != x2 || (ok1 == false && ok2 == false);
  commutes remove(x1) / ok1 <> count(x2) / n2
    when x1 != x2 || ok1 == false;
  commutes remove(x1) / ok1 <> size() / r2 when ok1 == false;
  commutes count(x1) / n1 <> count(x2) / n2 when true;
  commutes count(x1) / n1 <> size() / r2 when true;
  commutes size() / r1 <> size() / r2 when true;
}
|}

(* Guards the lazy cells below: two domains racing on the first force
   of an OCaml 5 lazy raise CamlinternalLazy.Undefined in the loser,
   and concurrent server sessions do exactly that. *)
let memo_mu = Mutex.create ()

let memo src =
  let cell = lazy (
    match Crd_spec_parser.Parser.parse_one src with
    | Ok spec -> spec
    | Error e -> failwith ("Stdspecs: builtin specification is broken: " ^ e))
  in
  fun () ->
    Mutex.protect memo_mu (fun () -> Lazy.force cell)

let dictionary = memo dictionary_src
let set = memo set_src
let counter = memo counter_src
let register = memo register_src
let fifo = memo fifo_src
let bag = memo bag_src

let all () =
  [ dictionary (); set (); counter (); register (); fifo (); bag () ]

let find name =
  List.find_opt (fun s -> String.equal (Spec.name s) name) (all ())

let spec_in specs o =
  let name = Crd_base.Obj_id.name o in
  let base =
    match String.index_opt name ':' with
    | Some i -> String.sub name 0 i
    | None -> name
  in
  List.find_opt (fun s -> String.equal (Spec.name s) base) specs

let spec_for o = spec_in (all ()) o
