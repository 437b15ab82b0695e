(** Operations of the mixed-consistency model (paper, Section 3).

    Processes issue memory operations (reads labelled PRAM or Causal,
    writes, and decrements on abstract counter objects, Section 5.3) and
    synchronization operations (read/write locks, barriers, awaits). Each
    operation execution is a pair of events: an invocation issued by the
    process and a matching response issued by the system. *)

type location = string
type lock_name = string
type value = int

(** Consistency label carried by each read (Definition 4, plus the
    group generalization sketched in Section 3.2: "the definition can be
    easily generalized to maintain causality across an arbitrary group of
    processes; PRAM reads and causal reads form the two end points of the
    spectrum"). A [Group] read maintains causality across the listed
    processes; [Group [i]] behaves like PRAM for process [i], and a group
    of all processes behaves like Causal. *)
type label = PRAM | Causal | Group of int list

type kind =
  | Read of { loc : location; label : label; value : value }
      (** [value] is the value returned by the memory system. *)
  | Write of { loc : location; value : value }
  | Decrement of { loc : location; amount : value; observed : value }
      (** Abstract counter-object operation (Section 5.3): atomically
          subtracts [amount]; [observed] is the pre-decrement value at the
          issuing replica. Commutes with other decrements. *)
  | Read_lock of lock_name
  | Read_unlock of lock_name
  | Write_lock of lock_name
  | Write_unlock of lock_name
  | Barrier of int  (** episode number: the k-th barrier in the history *)
  | Barrier_group of { episode : int; members : int list }
      (** a barrier over a subset of processes (Section 3.1.2: "a barrier
          can also be defined for a subset of processes by restricting
          the range of the universal quantification to the subset") *)
  | Await of { loc : location; value : value }
      (** [await (x = v)]: blocks until location [loc] holds [value]. *)

type t = {
  id : int;  (** index of the operation in its history *)
  proc : int;  (** issuing process *)
  kind : kind;
  inv_seq : int;  (** process-local sequence number of the invocation event *)
  resp_seq : int;  (** process-local sequence number of the response event *)
  sync_seq : int;
      (** manager-assigned global grant order for lock operations
          (monotone per lock object); [-1] for other operations *)
}

(** [writes_value op] is [Some (loc, v)] when [op] installs value [v] at
    [loc]: writes, and decrements (which install [observed - amount]). *)
val writes_value : t -> (location * value) option

(** [reads_value op] is [Some (loc, v)] when [op] observes value [v] at
    [loc]: reads, awaits, and decrements (which observe [observed]). *)
val reads_value : t -> (location * value) option

(** [is_memory_read op] is true exactly for [Read] operations — the ones
    constrained by Definitions 2 and 3. *)
val is_memory_read : t -> bool

val is_write_like : t -> bool
(** Writes and decrements. *)

val is_sync : t -> bool
(** Lock, unlock, barrier and await operations. *)

val lock_of : t -> lock_name option
(** The lock object touched, for lock/unlock operations. *)

val barrier_episode : t -> (int list * int) option
(** The episode a barrier operation takes part in: [([], k)] for plain
    barrier [k], [(members, k)] for a group barrier, with its member set
    sorted and deduplicated. *)

val pp_kind : Format.formatter -> kind -> unit
val pp : Format.formatter -> t -> unit
val to_string : t -> string
