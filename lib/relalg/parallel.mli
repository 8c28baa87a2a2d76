(** Domain-based intra-operator parallelism: chunk an array across Domains
    and join the results.  Used by the "Vendor A" executor configuration
    (the paper's commercial system uses 4 cores) and by the Smart-Iceberg
    NLJP operator when [Nljp.config.workers > 1]. *)

(** Split an array into at most [n] contiguous chunks of near-equal size. *)
val split : int -> 'a array -> 'a array list

(** [run_chunks ~workers rows f] applies [f] to each chunk in its own domain
    and returns results in chunk order.  [f] is called once per chunk and
    must not share mutable state across chunks; with [workers <= 1] it runs
    sequentially in the current domain. *)
val run_chunks : workers:int -> 'a array -> ('a array -> 'b) -> 'b list

(** [ranges n len]: the index ranges [[lo, hi)] of [split n] over an
    array of length [len]. *)
val ranges : int -> int -> (int * int) list

(** [run_ranges ~workers len f]: {!run_chunks} over the index ranges of
    an array of length [len], [f lo hi] per range. *)
val run_ranges : workers:int -> int -> (int -> int -> 'b) -> 'b list
