(** Predicate transfer: Bloom/IN pre-filtering across the join graph.

    Before NLJP materializes its side queries, every base relation of the
    query is semi-join-reduced along the equality join edges: a forward
    pass (FROM order) and a backward pass (reverse) each scan the relation
    under its local predicates plus the Bloom filters received so far, and
    publish a Bloom filter over each outgoing join column's surviving
    values.  The final per-alias filter sets are handed to
    {!Nljp.execute}, which passes them to each side's plan execution so
    base scans probe them through {!Relalg.Colscan.select_bloom}, composing
    with zone-map skipping.

    Soundness: a filter may only drop rows that join no tuple of the final
    result.  Blooms have no false negatives, so a row is dropped only when
    its join-key value is definitely absent from the neighbouring side's
    surviving values (rows with NULL join keys also drop — equality never
    holds for them).  Filters are built from a-priori-reduced inputs when
    a reducer rewrite is in force, but are never applied to the reducer
    subqueries themselves (see {!Nljp.execute}). *)

(** One equality join edge [a.ca = b.cb] between two FROM aliases. *)
type edge = {
  e_left : string * string;  (** (alias, unqualified column) *)
  e_right : string * string;
}

(** What to transfer, assembled by the optimizer's transfer phase. *)
type spec = {
  t_aliases : (string * string) list;
      (** (alias, base table name) in FROM order *)
  t_locals : (string * Sqlfront.Ast.pred list) list;
      (** per-alias single-alias WHERE conjuncts, including the IN
          predicate of an a-priori reducer replacement when one wraps the
          alias — the transfer sources *)
  t_edges : edge list;
  t_est_kept : (string * float) list;
      (** optimizer's predicted keep fraction per alias, for EXPLAIN
          ANALYZE's est-vs-actual accounting *)
}

type result = {
  r_filters : (string * (string * Column.Bloom.t) list) list;
      (** final per-alias filters: (column, Bloom) — feed to
          [Nljp.execute ~transfer] *)
  r_kept : (string * (int * int)) list;
      (** per-alias (kept, total) rows at the last (backward-pass) scan:
          exactly the reduction the registered filters will reproduce *)
  r_notes : string list;  (** per-pass / per-edge log, oldest first *)
}

(** Run the two semi-join passes against the base tables in [catalog].
    Under [span], each pass gets a timed child span carrying per-alias
    row counts; est-vs-actual reduction notes land in [r_notes]. *)
val run : ?span:Obs.Span.t -> Relalg.Catalog.t -> spec -> result

(** Filters built since process start (obs counter, for tests/EXPLAIN). *)
val filters_built : unit -> int
