(** The common read-validity rule of Definitions 2 and 3.

    A read [r(x)v] by process [i] is valid with respect to a relation [R]
    (either [⇝i,C] or [⇝i,P]) iff there exists a write [w(x)v] with
    [w R r] and there is no read/write operation [o(x)u], [u ≠ v], with
    [w R o R r].

    Initial values are modelled as a virtual write of 0 to every location
    that precedes every operation; reading the initial value is therefore
    valid iff no operation [o(x)u] with [u ≠ 0] satisfies [o R r].

    Memory reads of processes other than [i] are never interposers: the
    relations of Definitions 2 and 3 exclude them, so [R] may be given
    either restricted to the remaining operations or unrestricted. *)

type verdict =
  | Valid
  | No_matching_write  (** no write of the returned value is [R]-before the read *)
  | Overwritten of int
      (** the id of an operation [o(x)u] interposed between the matching
          write and the read *)

(** [check history relation ~read_id] applies the rule. [relation] must
    be a relation over the history's op ids (typically the closure
    {!Lattice} builds for a reader). Only the operations that touch the
    read's location are scanned
    ({!Mc_history.History.ops_at}), in ascending id order, so
    [Overwritten o] names the lowest-id interposer. Raises
    [Invalid_argument] if [read_id] is not a memory read. *)
val check : Mc_history.History.t -> Mc_util.Relation.t -> read_id:int -> verdict

val pp_verdict : Format.formatter -> verdict -> unit
