(** The always-on multi-session query server (DESIGN.md §12).

    One process owns the catalogs; clients hold sessions over a
    line-delimited JSON protocol ({!Protocol}).  A sys-thread per
    connection parses requests and answers control operations inline;
    queries and appends go through a bounded job queue drained by a fixed
    pool of worker domains, with submission past the queue's high-water
    mark rejected immediately ([overloaded] — admission control by
    backpressure).  Catalog access is readers/writer: plain queries run
    concurrently, appends and CTE-bearing queries run exclusively.

    Two shared cache tiers front execution, both keyed by normalized query
    text plus the session's execution config (layout, workers, transfer,
    tech): a plan cache of {!Core.Runner.prepared} statements and a result
    cache whose entries carry their delta epoch (the tables read and their
    {!Relalg.Catalog.stamp}s).  Appends are O(delta) (delta-block append,
    all layout catalogs in lockstep, all-or-nothing validation) and
    maintain both tiers instead of evicting them: plans refresh in place
    ({!Core.Runner.refresh_prepared}), result entries for unrelated tables
    survive untouched, and entries with §6 algebraic partial state
    ({!Core.Delta}) are folded forward or revalidated — only entries
    without a delta rule drop and recompute on next demand.  Partial
    states are shared per query shape: a new iceberg threshold over a
    registered shape is answered by finalizing its state, without running
    the join. *)

type config = {
  listen : Protocol.addr;
  pool : int;  (** worker domains executing queued jobs *)
  queue_cap : int;  (** admission-control high-water mark *)
  plan_cache_cap : int;
  result_cache_cap : int;
  max_rows : int option;  (** rows per query response; [None] = all *)
  maintain : bool;
      (** maintain cached results incrementally across appends: a cacheable
          miss over a query with a delta rule is answered from the §6
          algebraic partial state of its shape (built once, then shared by
          every threshold and SELECT variant of it, in a registry capped at
          [result_cache_cap] per layout), and appends fold each state once
          at O(delta join) instead of a recompute *)
  metrics_addr : Protocol.addr option;
      (** optional plain-HTTP listener answering every request with the
          Prometheus text exposition of the metrics registries (cumulative
          counters/histograms, rolling windows, cache/queue gauges,
          per-session tallies); [`Tcp (host, 0)] binds an ephemeral port,
          resolved by {!metrics_addr} *)
  slow_ms : float option;
      (** default slow-query threshold in milliseconds (per-session
          overridable with [set slow_ms=...]; negative resets to off):
          queries at or above it append a JSONL record — query text,
          session config, plan/cache disposition, per-node Analyze summary
          with est-vs-actual Q-errors — to [slow_log].  [None] = off. *)
  slow_log : string option;
      (** slow-query log path, opened lazily on the first record *)
  trace_sample : float;
      (** default fraction (0..1, per-session overridable with
          [set trace_sample=...]) of queries run fully instrumented —
          bypassing both caches, like an explicit analyze — and logged to
          [slow_log] with their complete span tree, so est-vs-actual
          coverage includes fast queries *)
}

val default_config : config

type t

(** [start ~config catalogs] binds the listener, spawns the worker pool
    and the accept thread, and returns immediately.  [catalogs] maps each
    loadable layout to its catalog (sessions switch with
    [set layout=...]); the first entry is the session default.  The
    catalogs become server-owned: mutate them only through the protocol's
    [append] once serving has started. *)
val start : ?config:config -> ([ `Row | `Column ] * Relalg.Catalog.t) list -> t

(** The metrics listener's effective address — the configured one with an
    ephemeral TCP port resolved to the actually bound port — or [None]
    when no [metrics_addr] was configured. *)
val metrics_addr : t -> Protocol.addr option

(** Initiate shutdown: stop accepting, close the job queue (queued jobs
    still drain), unblock the accept thread.  Idempotent; also triggered
    by a client's [shutdown] request. *)
val stop : t -> unit

(** Block until the accept thread and every worker domain have exited. *)
val wait : t -> unit

(** [stop] followed by [wait]. *)
val shutdown : t -> unit
