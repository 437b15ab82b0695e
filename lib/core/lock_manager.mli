(** Lock manager: grants read/write locks over named lock objects
    (Section 6: "Every lock is mapped to a process called the lock
    manager which accepts the requests for locking and unlocking").

    One manager instance runs at each node and manages the locks homed
    there. Grants follow {!Lock_arbiter}: FIFO, read requests at the
    front of the queue granted together, every grant and unlock stamped
    with a per-lock grant-order number — the [sync_seq] used to derive
    the [⤇lock] relation of the recorded history.

    The manager accumulates each releaser's applied-update counts into
    the lock's dependency clock and forwards it with every grant, which
    is the lazy-propagation scheme of Section 6; in demand mode it also
    accumulates and forwards critical-section write-sets. *)

type t

(** [create ~n ~demand ~send] builds a manager for [n] processes.
    [send ~dst msg] transmits a protocol message. [demand] selects
    demand-driven propagation (write-sets forwarded with grants). *)
val create : n:int -> demand:bool -> send:(dst:int -> Protocol.msg -> unit) -> t

(** [handle t ~src msg] processes a [Lock_request] or [Unlock_msg].
    Other messages, a request whose origin is not [src], and an unlock
    by a process that does not hold the lock raise [Invalid_argument]. *)
val handle : t -> src:int -> Protocol.msg -> unit

(** [grants_issued t] counts lock grants issued (for tests). *)
val grants_issued : t -> int
