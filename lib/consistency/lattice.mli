(** The consistency lattice: models as values (axiom sets).

    Following the axiom decompositions of Steinke & Nutt and Almeida, a
    model is a set of ordering/visibility axioms; its relation for a
    reader is the restricted transitive closure of the axiom-selected
    edges, and read validity is the one generic {!Read_rule}. The
    [Causal], [PRAM], [Group] and [Mixed] points reproduce the seed
    checkers verdict-for-verdict; [SC] and [Linearizable] check the
    sim-time serialization witness (id order = response order), so a
    failure there means "not SC/linearizable under the simulated
    execution order" — conservative in the strong direction.

    Monotonicity by construction: every model keeps the writes-into
    edges incident to the reader, so under the unique-writes assumption
    of Section 3 [leq m1 m2] implies the failing read-id set of [m1] is
    contained in that of [m2].

    The types are {!Model}'s, re-exported with their constructors so
    that {!Online}, which [failures] replays, can use them too. *)

(** Per-process session guarantees (Terry et al.), the lattice points
    below PRAM: [Read_your_writes] orders a process's writes before its
    own later reads; [Monotonic_reads] orders its reads among
    themselves (writes seen by an earlier read stay visible). *)
type guarantee = Model.guarantee = Read_your_writes | Monotonic_reads

type t = Model.t =
  | Linearizable  (** SC plus the sim-time real-time order *)
  | SC  (** causal plus a sim-time total write order *)
  | Processor  (** PRAM and cache: the join of the two *)
  | Cache  (** per-location SC (same-location program order + write order) *)
  | Causal  (** Definition 2: [⇝] restricted to what may affect the reader *)
  | Mixed  (** each read checked at its own declared label (Definition 4) *)
  | Group of int list
      (** Section 3.2 visibility groups; the reader is implicitly a
          member, so [Group []] coincides with [PRAM] and
          [Group all_procs] with [Causal] *)
  | PRAM
      (** Definition 3: program order plus the reduced sync and reads-from
          edges touching the reader *)
  | Slow  (** per-location PRAM: the meet of PRAM and cache *)
  | Session of guarantee list
      (** only the selected session guarantees; [Session []] is the
          lattice bottom (reads may return any written or initial value) *)

(** {1 Axioms} *)

type po_axiom =
  | Po_none
  | Po_session of { ryw : bool; mr : bool }
      (** the reader's own write→read (ryw) and read→read (mr) edges *)
  | Po_per_location  (** same-location edges; sync operations fence *)
  | Po_global

(** Edge filter for writes-into and synchronization edges: none, only
    edges touching the reader, only edges touching a group member, or
    all. *)
type scope = S_none | S_reader | S_group of int list | S_all

type wo_axiom = Wo_none | Wo_per_location | Wo_global

type axioms = {
  po : po_axiom;
  wi : scope;  (** writes-into (reads-from) edges *)
  sync : scope;  (** reduced synchronization-order edges *)
  wo : wo_axiom;  (** sim-time (id-order) total write order *)
  rt : bool;  (** sim-time real-time order over all operations *)
}

(** [axioms_of m] is the axiom set of model [m]. Raises
    [Invalid_argument] for [Mixed], which dispatches per read. *)
val axioms_of : t -> axioms

(** The axiom point of one declared read label. Groups are kept
    verbatim: the reader must be a member, as in Section 3.2's group
    relation. *)
val axioms_of_label : Mc_history.Op.label -> axioms

(** {1 Lattice structure} *)

(** [leq m1 m2]: [m1]'s relation is contained in [m2]'s for every
    history and reader (axiom-set inclusion). [Mixed] behaves as the
    interval [PRAM, Causal]: [leq x Mixed = leq x PRAM] and
    [leq Mixed y = leq Causal y]. *)
val leq : t -> t -> bool

(** Order-equivalence ([leq] both ways — e.g. [Group []] and [PRAM]). *)
val equal : t -> t -> bool

val meet : t -> t -> t
val join : t -> t -> t

(** {1 Names} *)

val to_string : t -> string

(** [of_string s] parses [sc], [linearizable] (or [lin]), [causal],
    [mixed], [processor], [cache], [pram], [slow], [group:0,1,...],
    [session] (both guarantees), [session:none], [session:ryw,mr]. *)
val of_string : string -> (t, string) result

val pp : Format.formatter -> t -> unit

(** The documentation / benchmark sweep, weakest points first (the
    order is a linear extension of [leq] restricted to comparable
    pairs; cache/processor and mixed are mutually incomparable with
    some neighbours). *)
val ladder : t list

(** {1 Checking} *)

(** [relation h ax ~reader] is the axiom set's relation for [reader]:
    the transitive closure of the selected edges restricted to exclude
    other processes' memory reads. The unrestricted closure is built
    once per axiom set (per reader only for reader-scoped axioms) and
    cached on [h]; [verdict] and [verdict_at] share that cache, and the
    closure path of [failures] uses it for the closures shared by all
    readers only. The restriction is a fresh copy on every call, and the
    checking functions below never make it. Raises [Invalid_argument]
    if a group scope omits the reader or has a member out of range,
    whether or not the closure is cached. *)
val relation : Mc_history.History.t -> axioms -> reader:int -> Mc_util.Relation.t

(** [verdict h m ~read_id] applies {!Read_rule.check} under model [m],
    always against a closure, at every point.
    [Group g] is implicitly reader-augmented; [Mixed] dispatches on the
    read's declared label. Raises [Invalid_argument] if [read_id] is
    not a memory read. *)
val verdict : Mc_history.History.t -> t -> read_id:int -> Read_rule.verdict

(** [verdict_at h label ~read_id] checks one read at one declared
    label's axiom point: [PRAM] is Definition 3, [Causal] Definition 2,
    and [Group g] the Section-3.2 group read, with [g] kept verbatim
    (the reader must be a member). *)
val verdict_at :
  Mc_history.History.t -> Mc_history.Op.label -> read_id:int -> Read_rule.verdict

(** One invalid read: its id, its declared label (whatever model it was
    checked under) and the verdict. *)
type failure = Model.failure = {
  read_id : int;
  label : Mc_history.Op.label;
  verdict : Read_rule.verdict;
}

(** [failures_at h ms] checks every memory read of [h] under each point
    of [ms], in that order: one result per point, [Ok] with the failing
    reads in ascending id order, with the same results as {!verdict}
    read by read, or [Error msg] where the closures raise
    [Invalid_argument msg] (a group member out of range, a group read
    by a non-member). The result at [Mixed] is Definition 4: each read
    at its own declared label.

    On a history that meets {!Mc_history.Stream.meets_restrictions},
    the points {!Online.supports} accepts (a group's members naming
    processes of [h]) are decided by one [Online.check ~points] replay:
    no closure is built for them. The other points take the closures,
    and so does every point of a history outside the restrictions. A
    replay that raises (a cyclic history, a group read by a
    non-member) falls back to one replay per point, and a one-point
    replay that raises to the closures, so every verdict and every
    error is the one-point call's. The closures shared by all readers
    are memoized on [h]; reads whose axioms are reader-scoped (PRAM,
    processor, slow, session, and Mixed's PRAM-labelled reads) are
    checked one reader at a time against closures built for that
    reader, which are not memoized and are dropped after its reads, so
    a second call rebuilds them. *)
val failures_at :
  Mc_history.History.t -> t list -> (failure list, string) result list

(** [failures h m] is [failures_at h [m]]'s one result; an [Error msg]
    raises [Invalid_argument msg]. *)
val failures : Mc_history.History.t -> t -> failure list

(** [closure_failures h m] is [failures h m] computed by the closures
    alone, whatever the point and the history. It never replays
    {!Online}, so it is the offline side of any comparison with the
    streaming checker, where [failures] may be that checker's own
    replay. Raises [Invalid_argument] where [failures] does (a group
    read by a non-member, a group member out of range). *)
val closure_failures : Mc_history.History.t -> t -> failure list

(** [is_consistent h m] is [failures h m = []]: a causal history at
    [Causal], a PRAM history at [PRAM], a mixed-consistent one at
    [Mixed]. *)
val is_consistent : Mc_history.History.t -> t -> bool

(** Prints ["<label> read <id>: <verdict>"], e.g. ["PRAM read 4:
    overwritten by op 0"]. *)
val pp_failure : Format.formatter -> failure -> unit
