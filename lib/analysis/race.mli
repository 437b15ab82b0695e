(** Race detector: ⇝-unrelated non-commuting operation pairs.

    This is exactly the first premise of Theorem 1
    ([Commute.theorem1_report]), recast as a compiler-style analysis:
    instead of closing the causality relation transitively (an n×n bit
    matrix) and scanning all O(n²) pairs, the detector

    + folds happens-before chain clocks over the causality covering:
      {!Mc_history.Stream} gives each operation its chain, its rank on
      it and its program-order ([U]) and synchronization ([S]) covering
      in-edges; reads-from comes from [History.writers_of], every writer
      of the value read, as [History.reads_from] draws it, including a
      writer that completes after the read (a repeated value, or the
      initial value written back), which the stream cannot link. An
      operation's clock is the join of its sources' clocks, folded in a
      topological order of that union, and its own chain entry is its
      rank plus one. Chains are the stream's greedy first-fit
      decomposition of each process's program order, so a process whose
      operations never overlap has one chain. Cost: O((n + e)·c) time
      and O(n·c + e) space, for [e] covering and reads-from edges and
      [c] chains;
    + buckets operations into conflict groups — by memory location, and
      by lock object for lock acquires — since [Commute.commute] only
      returns [false] inside such a group;
    + screens out every location whose Eraser candidate lockset is
      non-empty ({!Lockset}): its conflicting accesses are ordered by the
      lock order, so no pair needs checking. The screen applies only when
      no process has more than one chain, since the lockset argument
      needs each process's operations totally ordered; otherwise every
      pair is checked;
    + enumerates the remaining conflicting pairs and keeps those the
      clocks prove concurrent.

    The clocks answer exactly like [History.causality], and the reported
    pairs are exactly [(Commute.theorem1_report h).non_commuting_pairs]
    (differential tested), under {!Mc_history.Stream}'s barrier
    restrictions: no reuse of plain barrier indices, no overlapping
    barriers on one process. Outside them the detector still runs, but
    its barrier edges may diverge from the offline covering. The cost is
    O((n + e)·c + Σ_g |g|²) over the small unprotected groups instead of
    O(n²) over everything. *)

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
    cyclic or the history's event sequencing is inconsistent (see
    {!Mc_history.Stream.replay}). *)
val detect :
  ?shared:(Mc_history.Op.location -> bool) -> Mc_history.History.t -> report

(** [happens_before h] folds the clocks once; the returned [hb i j] is
    true when operation [i] strictly precedes [j] in the causality
    relation, in O(1). Raises [Invalid_argument] as {!detect} does. *)
val happens_before : Mc_history.History.t -> int -> int -> bool

(** The race pairs as (smaller, larger) id pairs, sorted — directly
    comparable with [Commute.theorem1_report]. *)
val race_pairs : report -> (int * int) list

(** Diagnostics: rule [R001] per race, plus the lockset [R002]s. *)
val diagnostics : Mc_history.History.t -> report -> Diag.t list
