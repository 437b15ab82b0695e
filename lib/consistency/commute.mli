(** Commutativity analysis (Definition 5) and the Theorem 1 condition.

    Two operations commute when, from any state in which both are enabled,
    executing them in either order is possible and yields the same final
    state. The paper's sufficient conditions are encoded syntactically:
    operations on different objects commute, reads commute, decrements on
    the same counter commute, and operations never enabled simultaneously
    commute vacuously.

    Theorem 1: a history is sequentially consistent if every pair of
    operations unrelated by the causality relation commutes and every read
    is a causal read. *)

(** Memory footprint of an operation, for the syntactic commutativity
    rules: what location it observes and what location it mutates.
    Synchronization operations (locks, barriers) have no footprint. *)
type footprint = {
  observes : Mc_history.Op.location option;
  mutates : Mc_history.Op.location option;
  counter_op : bool;  (** decrements commute with each other *)
}

val footprint : Mc_history.Op.t -> footprint option

(** [commute a b] decides commutativity of two operations from their
    kinds. *)
val commute : Mc_history.Op.t -> Mc_history.Op.t -> bool

type report = {
  non_commuting_pairs : (int * int) list;
      (** causally-unrelated pairs that do not commute; order-canonical
          (smaller id first), sorted, duplicate-free *)
  non_causal_reads : Lattice.failure list;
}

(** [theorem1_report h] evaluates both premises of Theorem 1. *)
val theorem1_report : Mc_history.History.t -> report

(** [theorem1_holds h] is true when the premises hold — in which case the
    history is sequentially consistent. *)
val theorem1_holds : Mc_history.History.t -> bool

val pp_report : Format.formatter -> report -> unit
