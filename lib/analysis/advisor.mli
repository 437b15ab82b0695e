(** Label advisor: the weakest read label that keeps the SC guarantee.

    The consistency spectrum orders read labels PRAM < Group < Causal
    (Section 3.2): stronger labels cost more delivery synchronization at
    run time. For every memory read the advisor computes the label it
    {e should} carry:

    - when the history is PRAM-consistent (Corollary 2) and the read
      validates under the PRAM order, PRAM suffices;
    - when the history is entry-consistent (Corollary 1) and the location
      is shared, the read must be Causal — even if a PRAM verdict happens
      to pass in this schedule, the corollary's SC guarantee needs
      causality;
    - otherwise the weakest label whose read rule (Definitions 2–3)
      validates the value actually read, trying PRAM, then the declared
      group (if any), then Causal.

    The failure sets of every lattice point a read may need — the four
    session points, PRAM, each group a read declares, and Causal — come
    from one {!Mc_consistency.Lattice.failures_at} call per history: one
    [Online] replay at all of them on a history within the stream's
    restrictions. Every read is answered from those sets, with the same
    advice as per-read {!Mc_consistency.Lattice.verdict_at} and
    {!Mc_consistency.Lattice.verdict} calls would give; a point whose
    check raises (a group member out of range) validates no read.

    Comparing the recommendation with the declared label yields:
    [A001] over-labelled (wasted causal-delivery cost), [A002]
    under-labelled (SC at risk), [A003] no label validates the read,
    [A004] a lattice move below PRAM (a session point) validates the
    read in this schedule. *)

type advice = {
  read_id : int;
  declared : Mc_history.Op.label;
  declared_valid : bool;  (** the declared label's read rule passes *)
  recommended : Mc_history.Op.label option;
      (** [None] when no label validates the read *)
  rec_model : Mc_consistency.Lattice.t option;
      (** the weakest lattice point validating the read in this
          schedule — the [recommended] search extended downward through
          the session points below PRAM. Purely advisory: the SC
          corollaries never require moving below [recommended]. *)
}

val label_to_string : Mc_history.Op.label -> string

(** Strength on the spectrum: PRAM = 0, Group = 1, Causal = 2. *)
val strength : Mc_history.Op.label -> int

(** [advise h] computes one advice per memory read. *)
val advise : Mc_history.History.t -> advice list

(** Diagnostics: [A001]/[A002]/[A003] for reads whose declared label
    disagrees with the recommendation; a correctly-labelled read whose
    weakest lattice point is a session guarantee produces an [A004]
    info (a downward lattice move), otherwise nothing. *)
val diagnostics : Mc_history.History.t -> advice list -> Diag.t list
