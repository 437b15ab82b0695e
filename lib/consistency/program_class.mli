(** Program-class checkers for the two corollaries of Section 4.

    Corollary 1: any history of an {e entry-consistent} program in which
    all reads of shared variables are causal is sequentially consistent.
    A program is entry-consistent when shared variables are partitioned
    into sets, each set has a unique lock, reads occur under a read or
    write lock of that lock, and writes occur under a write lock.

    Corollary 2: any history of a {e PRAM-consistent} program in which all
    reads of shared variables are PRAM reads is sequentially consistent.
    A program is PRAM-consistent when, in any phase (the computation
    between consecutive barriers), a variable is updated at most once and
    all reads of the variable follow the update.

    Both checkers operate on recorded histories: they verify that the
    recorded execution obeys the discipline, which is how a compiler-style
    analysis would validate a run of the program. Both read the locks
    held at each access and the barrier phases off the history's one
    walk ({!Mc_history.History.walk}). A variable is shared when at least
    two processes read, write or decrement it. *)

val shared : Mc_history.History.t -> Mc_history.Op.location -> bool

(** [locksets h] is the walk's lockset of every shared variable, sorted
    by location. *)
val locksets : Mc_history.History.t -> Mc_history.History.lockset list

(** [is_entry_consistent h]: every shared variable keeps a non-empty
    candidate lockset, so one lock, held in a sufficient mode at every
    access, covers it. An access under no sufficient lock empties its
    variable's candidates. *)
val is_entry_consistent : Mc_history.History.t -> bool

type phase_violation = {
  op_id : int;
  loc : Mc_history.Op.location;
  phase : int;
  reason : string;
}

(** [check_pram_consistent h] checks that within each barrier phase (the
    number of barriers before an operation on its process) every shared
    variable is written at most once, is never read by another process
    in the phase it is written, and is never read before its same-phase
    write by the writing process. *)
val check_pram_consistent : Mc_history.History.t -> phase_violation list

val is_pram_consistent : Mc_history.History.t -> bool
