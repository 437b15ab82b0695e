(** Structural lock- and synchronization-discipline lint rules.

    The lock rules (L001, L002, L003, L006) read each operation's held
    locks off the history's one walk ({!Mc_history.History.walk}: each
    process in invocation order); the others scan the operations. Each
    reports violations as diagnostics with stable rule codes:

    - [L001] unlock without a matching lock held by the process (or an
      unlock in the wrong mode);
    - [L002] acquiring a lock the process already holds (self-deadlock on
      a real lock manager; the simulator's manager would stall too);
    - [L003] a lock still held when the process's history ends;
    - [L004] mismatched barrier episodes: participant sets that disagree
      with the episode's declared membership (or, for global barriers,
      processes that skip an episode others complete);
    - [L005] an await on a (location, value) no operation ever writes and
      that is not the initial value — the await can never fire;
    - [L006] a write-like access performed while the process holds only
      read-mode locks: a read lock cannot protect a write.

    The rules are purely structural: no happens-before or replay
    reasoning, so they run in O(n) and catch discipline bugs even in
    histories that happen to be consistent. *)

val lint : Mc_history.History.t -> Diag.t list
