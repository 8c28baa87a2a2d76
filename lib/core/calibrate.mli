(** Cost-model calibration: replay a workload under EXPLAIN ANALYZE and
    tabulate estimated vs actual per technique — plan-node cardinalities,
    the a-priori gate's keep ratio, memo repeat-binding payoff and pruning's
    unmodeled eval savings (DESIGN.md §10). *)

type row = {
  c_workload : string;
  c_query : string;
  c_metric : string;
  c_est : float;
  c_act : float;
  c_q : float;  (** Q-error of est vs act *)
  c_note : string;
}

(** Replay [(name, sql)] queries against [catalog]; rows in replay order. *)
val calibrate :
  ?tech:Optimizer.technique ->
  ?nljp_config:Nljp.config ->
  ?workers:int ->
  workload:string ->
  Relalg.Catalog.t ->
  (string * string) list ->
  row list

val to_text : row list -> string
val to_json : row list -> Obs.Json.t

(** The [k] worst rows by Q-error. *)
val worst : int -> row list -> row list
