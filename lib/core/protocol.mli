(** Wire protocol of the mixed-consistency DSM (Section 6).

    All node-to-node traffic is one of these messages. Updates carry the
    writer's dependency clock for causal delivery; lock and barrier
    control messages carry dependency clocks so grantees and barrier
    leavers know which updates must be applied before they proceed. *)

(** A propagated write or decrement. *)
type update = {
  writer : int;
  useq : int;  (** per-writer update sequence number, starting at 1 *)
  dep : int array;
      (** applied-update counts per process at the writer when the update
          was issued; [dep.(writer) = useq - 1] *)
  loc : Mc_history.Op.location;
  numeric : Mc_history.Op.value;
      (** the application-level value (for decrements, the amount) *)
  tag : int;
      (** globally unique identity of the installed value, used for exact
          reads-from recording; [0] for decrements *)
  is_dec : bool;
}

(** One coalesced update inside an {!Update_batch}. Its dependency clock
    is delta-encoded against the previous update of the batch: only the
    entries that differ are listed, and the writer's own entry is never
    transmitted (it equals [useq - 1], with useqs consecutive within a
    batch). *)
type batch_item = {
  b_loc : Mc_history.Op.location;
  b_numeric : Mc_history.Op.value;
  b_tag : int;
  b_is_dec : bool;
  b_dep_delta : (int * int) list;
      (** [(process, count)] entries of the dependency clock that changed
          relative to the previous update in the batch *)
}

(** A run of consecutive updates by one writer, coalesced into a single
    wire message between synchronization points. Only the first update
    carries its full dependency clock. Because channels are FIFO and the
    items are in useq order, delivering the decoded updates in sequence
    preserves exactly the ordering guarantees of individual sends. *)
type batch = { first : update; rest : batch_item list }

(** [encode_batch updates] delta-encodes a non-empty list of updates by
    one writer with consecutive useqs. Raises [Invalid_argument]
    otherwise. *)
val encode_batch : update list -> batch

(** [decode_batch b] reconstructs the full updates, inverse of
    {!encode_batch}. *)
val decode_batch : batch -> update list

(** [batch_length b] is the number of updates carried. *)
val batch_length : batch -> int

(** [batch_delta_entries b] is the total number of transmitted
    dependency-clock delta entries, the basis of the wire-cost model for
    batches. *)
val batch_delta_entries : batch -> int

(** A propagated write scoped to one shard of a partially-replicated
    placement (see {!Mc_placement}). Instead of the global vector clock
    it carries per-shard ordering metadata: [su_sseq] numbers the
    (writer, shard) stream starting at 1, and [su_sdep] is the
    shard-scoped delta clock — the sparse per-writer applied counts of
    that shard at the writer when the update was issued, with the
    writer's own entry omitted (it equals [su_sseq - 1]). Subscribers
    deliver the update to their per-shard causal view once [su_sdep] is
    satisfied; the PRAM view applies it on receipt (tree paths are
    fixed per stream, so per-stream FIFO order is preserved). *)
type shard_update = {
  su_shard : int;
  su_writer : int;
  su_sseq : int;
  su_sdep : (int * int) list;
  su_loc : Mc_history.Op.location;
  su_numeric : Mc_history.Op.value;
  su_tag : int;
  su_is_dec : bool;
}

type msg =
  | Update of update
  | Update_batch of batch
  | Shard_update of shard_update
  | Fetch_request of { proc : int; loc : Mc_history.Op.location }
      (** demand-driven propagation for non-subscribers: ask the
          location's shard {e home} (least subscriber) for its current
          per-shard causal value *)
  | Fetch_reply of {
      loc : Mc_history.Op.location;
      numeric : Mc_history.Op.value;
      tag : int;
      clock : (int * int) list;
          (** the home's per-writer applied counts for the location's
              shard — the snapshot the fetched read is validated
              against by the partial-view online checker *)
    }
  | Lock_request of { proc : int; lock : Mc_history.Op.lock_name; write : bool }
  | Lock_grant of {
      lock : Mc_history.Op.lock_name;
      write : bool;
      seq : int;  (** manager grant-order number for the lock operation *)
      dep : int array;  (** updates the grantee must apply before entering *)
      invalid : (Mc_history.Op.location * int array) list;
          (** demand mode: locations whose reads must wait for [dep] *)
      values : (Mc_history.Op.location * int * int) list;
          (** entry mode: current values of the lock's guarded variables,
              installed at the grantee before it enters *)
    }
  | Unlock_msg of {
      proc : int;
      lock : Mc_history.Op.lock_name;
      write : bool;
      vc : int array;  (** the releaser's applied-update counts *)
      write_set : Mc_history.Op.location list;
      values : (Mc_history.Op.location * int * int) list;
          (** entry mode: (location, numeric, tag) of every value written
              in the critical section, to ride the next grant *)
    }
  | Unlock_ack of { lock : Mc_history.Op.lock_name; seq : int }
  | Flush_request of { proc : int }
  | Flush_ack of { proc : int }
  | Barrier_arrive of {
      proc : int;
      episode : int;
      vc : int array;
      members : int list;  (** empty means all processes *)
      sent : int array;
          (** counts mode (a placement is set): cumulative shard updates
              this process has routed to each peer (Section 6's count
              vectors); empty under full replication, whose barrier uses
              vector timestamps *)
    }
  | Barrier_release of {
      episode : int;
      dep : int array;
      members : int list;
      expect : int array;
          (** counts mode (a placement is set): cumulative update counts
              the receiver must have received from each peer before
              leaving the barrier; empty under full replication *)
    }

(** [kind msg] is a short label for per-kind message statistics. *)
val kind : msg -> string
