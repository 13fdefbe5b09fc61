open Crd_base

type op =
  | Call of Action.t
  | Read of Mem_loc.t
  | Write of Mem_loc.t
  | Fork of Tid.t
  | Join of Tid.t
  | Acquire of Lock_id.t
  | Release of Lock_id.t
  | Begin
  | End

type t = { tid : Tid.t; op : op }

let call tid a = { tid; op = Call a }
let read tid l = { tid; op = Read l }
let write tid l = { tid; op = Write l }
let fork tid u = { tid; op = Fork u }
let join tid u = { tid; op = Join u }
let acquire tid l = { tid; op = Acquire l }
let release tid l = { tid; op = Release l }
let begin_ tid = { tid; op = Begin }
let end_ tid = { tid; op = End }

let op_equal a b =
  match (a, b) with
  | Call x, Call y -> Action.equal x y
  | Read x, Read y | Write x, Write y -> Mem_loc.equal x y
  | Fork x, Fork y | Join x, Join y -> Tid.equal x y
  | Acquire x, Acquire y | Release x, Release y -> Lock_id.equal x y
  | Begin, Begin | End, End -> true
  | ( ( Call _ | Read _ | Write _ | Fork _ | Join _ | Acquire _ | Release _
      | Begin | End ),
      _ ) ->
      false

let equal a b = Tid.equal a.tid b.tid && op_equal a.op b.op

let pp_op ppf = function
  | Call a -> Fmt.pf ppf "call %a" Action.pp a
  | Read l -> Fmt.pf ppf "read %a" Mem_loc.pp l
  | Write l -> Fmt.pf ppf "write %a" Mem_loc.pp l
  | Fork u -> Fmt.pf ppf "fork %a" Tid.pp u
  | Join u -> Fmt.pf ppf "join %a" Tid.pp u
  | Acquire l -> Fmt.pf ppf "acquire %a" Lock_id.pp l
  | Release l -> Fmt.pf ppf "release %a" Lock_id.pp l
  | Begin -> Fmt.string ppf "begin"
  | End -> Fmt.string ppf "end"

let pp ppf t = Fmt.pf ppf "%a: %a" Tid.pp t.tid pp_op t.op
