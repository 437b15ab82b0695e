(** Lattice points and read failures as plain values.

    The types {!Lattice} checks with and {!Online} streams, kept apart
    from both so that [Lattice] can run an [Online] replay. [Lattice]
    re-exports every type here with its constructors, and documents
    them; callers name them through [Lattice]. *)

type guarantee = Read_your_writes | Monotonic_reads

type t =
  | Linearizable
  | SC
  | Processor
  | Cache
  | Causal
  | Mixed
  | Group of int list
  | PRAM
  | Slow
  | Session of guarantee list

(** A group's members, sorted and deduplicated. *)
val norm_group : int list -> int list

(** {!Lattice.to_string}. *)
val to_string : t -> string

type failure = {
  read_id : int;
  label : Mc_history.Op.label;
  verdict : Read_rule.verdict;
}
