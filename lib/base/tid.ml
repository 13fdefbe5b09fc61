type t = int

let max_id = 0xFFFF

let of_int i =
  if i < 0 then invalid_arg "Tid.of_int: negative thread id";
  if i > max_id then invalid_arg "Tid.of_int: thread id above Tid.max_id";
  i

let to_int t = t
let main = 0
let equal = Int.equal
let compare = Int.compare
let hash t = Hashtbl.hash t
let pp ppf t = Fmt.pf ppf "T%d" t
