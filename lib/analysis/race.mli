(** Race detector: ⇝-unrelated non-commuting operation pairs.

    This is exactly the first premise of Theorem 1
    ([Commute.theorem1_report]), recast as a compiler-style analysis:
    instead of closing the causality relation transitively (an n×n bit
    matrix) and scanning all O(n²) pairs, the detector

    + derives happens-before vector clocks from the causality base
      relation ({!Hb}, O((n + e)·procs)),
    + buckets operations into conflict groups — by memory location, and
      by lock object for lock acquires — since [Commute.commute] only
      returns [false] inside such a group,
    + screens out every location whose Eraser candidate lockset is
      non-empty ({!Lockset}): its conflicting accesses are ordered by the
      lock order, so no pair needs checking,
    + enumerates the remaining conflicting pairs and keeps those the
      clocks prove concurrent.

    On a well-formed history the reported pairs are exactly
    [(Commute.theorem1_report h).non_commuting_pairs] (differential
    tested), at O(n·procs + Σ_g |g|²) cost over the small unprotected
    groups instead of O(n²) over everything. *)

type race = {
  first : int;  (** smaller op id *)
  second : int;
  subject : string;  (** the shared location or lock object in conflict *)
}

type report = {
  races : race list;  (** sorted by (first, second); duplicate-free *)
  locksets : Lockset.info list;
  hb_chains : int;  (** program-order chains used by the clocks *)
}

(** [detect ?shared h] runs the analysis. [shared] is passed to the
    lockset screen; the default treats locations accessed by two or more
    processes as shared. Raises [Invalid_argument] if causality is
    cyclic. *)
val detect :
  ?shared:(Mc_history.Op.location -> bool) -> Mc_history.History.t -> report

(** The race pairs as (smaller, larger) id pairs, sorted — directly
    comparable with [Commute.theorem1_report]. *)
val race_pairs : report -> (int * int) list

(** Diagnostics: rule [R001] per race, plus the lockset [R002]s. *)
val diagnostics : Mc_history.History.t -> report -> Diag.t list
