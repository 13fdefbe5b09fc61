(** A miniature SQL subset — the query language of the H2-shaped workload.

    The Pole Position benchmark drives H2 with SQL; our substitute store
    speaks this subset, parsed by a hand-written lexer/parser:

    {v
    CREATE TABLE t (a, b, c)
    INSERT INTO t VALUES (1, "x", 2)
    SELECT a, b FROM t WHERE a = 1 AND b <> "y"
    SELECT COUNT( * ) FROM t
    UPDATE t SET b = "z" WHERE a = 1
    DELETE FROM t WHERE a = 2
    v}

    Statements are parsed to the {!stmt} AST; execution lives in
    {!Mvstore}. *)

open Crd_base

type cmp = Ceq | Cne | Clt | Cle | Cgt | Cge

type cond = { col : string; cmp : cmp; value : Value.t }
(** Conjunctive WHERE clauses only: [c1 AND c2 AND ...]. In joins, column
    names may be qualified ([table.col]). *)

type agg = Sum | Min | Max | Avg

type order = { by : string; desc : bool }

type stmt =
  | Create of { table : string; cols : string list }
  | Insert of { table : string; values : Value.t list }
  | Select of {
      table : string;
      cols : string list;
      where : cond list;
      order_by : order option;
      limit : int option;
    }  (** [cols = \["*"\]] selects everything. *)
  | Select_count of { table : string; where : cond list }
      (** [SELECT COUNT( * )]; with an empty [where] it uses the store's
          size operation. *)
  | Select_agg of { table : string; agg : agg; col : string; where : cond list }
      (** [SELECT SUM(col) FROM t ...] over integer columns. *)
  | Select_join of {
      left : string;
      right : string;
      on_left : string;
      on_right : string;  (** equi-join: [left.on_left = right.on_right] *)
      cols : string list;  (** qualified names, or [\["*"\]] *)
      where : cond list;  (** qualified names *)
    }
  | Update of { table : string; col : string; value : Value.t; where : cond list }
  | Delete of { table : string; where : cond list }

val parse : string -> (stmt, string) result
val pp_stmt : stmt Fmt.t
val cond_holds : cond -> (string -> Value.t option) -> bool
(** Evaluate a condition against a row given column lookup; missing
    columns fail the condition. *)
