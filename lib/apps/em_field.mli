(** Electromagnetic field computation (paper Section 5.2, Figure 4).

    A 2-D grid of E-nodes and H-nodes is partitioned into row strips, one
    per process. Computation alternates phases: E values are updated from
    adjoining H values, then H values from adjoining E values, with a
    barrier after each phase ("Updates performed in a phase should be
    available in subsequent phases"). Only the strip-boundary rows are
    shared; interior rows stay process-local — the shared rows are
    exactly the "ghost copies" the paper says PRAM provides
    automatically.

    The program is PRAM-consistent (each shared row is written once per
    phase and read only in later phases), so PRAM reads preserve
    correctness (Corollary 2). *)

type params = {
  rows : int;  (** grid height; must be >= number of processes *)
  cols : int;  (** grid width *)
  steps : int;  (** number of E+H update rounds *)
  seed : int;
}

type result = {
  checksum : int;  (** order-independent digest of the final fields *)
  energy : int;  (** sum of |E| + |H| over the grid, fixed point *)
}

(** [launch ~spawn ~procs ?label params] runs the computation on any
    memory providing {!Mc_dsm.Api.t}. [label] is the read label for
    shared rows (default PRAM). The cell is filled by process 0 after
    the final barrier. *)
val launch :
  spawn:(int -> (Mc_dsm.Api.t -> unit) -> unit) ->
  procs:int ->
  ?label:Mc_history.Op.label ->
  params ->
  result option ref

(** [reference ~procs params] is the sequential execution with the same
    schedule and arithmetic. *)
val reference : procs:int -> params -> result

(** [placement ~procs] is the program's access pattern as a placement
    (Section 6): every strip gets three shards — its published E row, its
    published H row, its two digests — each subscribed by its writer and
    its one reader (the adjacent strip, or process 0 for the digests). *)
val placement : procs:int -> Mc_placement.Placement.t
