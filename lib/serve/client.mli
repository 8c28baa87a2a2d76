(** Synchronous client for the query server: one request on the wire at a
    time, response matched by id.  A [t] owns one connection/session and
    is not itself thread-safe — concurrent load generators (perfbench's
    serving workloads, the differential fuzz tests) each open their own. *)

type t

(** An [ok:false] response, re-raised at the call site.  [code] is
    [overloaded] (admission backpressure — safe to retry), [bad_request]
    or [error]. *)
exception Server_error of { code : string; message : string }

val connect : Protocol.addr -> t

(** The server-assigned session id (from the hello line). *)
val session : t -> int

val close : t -> unit

(** Send one request and block for its response.  Raises {!Server_error}
    on failure responses. *)
val rpc : t -> Protocol.request -> Obs.Json.t

val ping : t -> unit
val query : ?analyze:bool -> t -> string -> Obs.Json.t
val set : t -> (string * Obs.Json.t) list -> Obs.Json.t
val append : t -> string -> Obs.Json.t list -> Obs.Json.t
val stats : t -> Obs.Json.t

(** The metrics exposition document: cumulative counters and histogram
    summaries, rolling-window snapshots (qps, p50/p95 over the last
    minute), queue/cache gauges — the [monitor] view's data source. *)
val metrics : t -> Obs.Json.t

(** Request shutdown; tolerates the connection dropping as the server
    stops. *)
val shutdown : t -> unit

(** Decode a query response's row payload back into a relation.  Column
    names keep qualifiers verbatim; compare results with
    {!Core.Runner.same_result}, which ignores names. *)
val relation_of_response : Obs.Json.t -> Relalg.Relation.t

(** The [cached] flag of a query response (result-cache hit). *)
val cached : Obs.Json.t -> bool

(** Server-side execution time of a query response, in milliseconds (the
    original execution's time when the response was served from the result
    cache). *)
val ms : Obs.Json.t -> float

(** Total result cardinality, independent of any [max_rows] truncation. *)
val rows_n : Obs.Json.t -> int
