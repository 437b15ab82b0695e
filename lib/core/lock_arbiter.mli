(** FIFO reader–writer arbitration over named lock objects: the one
    grant discipline shared by the mixed runtime's {!Lock_manager} and
    the sequentially consistent baselines' central lock managers.

    Requests queue FIFO per lock. A write request is granted when the
    lock is free; read requests at the front of the queue are granted
    together as long as no writer holds the lock (strict FIFO, so a
    queued write request blocks later read requests — no writer
    starvation). Every grant and every release is stamped with the lock's
    next grant-order number — the [sync_seq] from which the recorded
    history derives its [⤇lock] relation.

    Each lock carries a payload of the caller's type, created on the
    lock's first use, in which a manager keeps what its grants forward
    (the runtime's dependency clock, write-sets and guarded values). *)

type 'a t

(** [create ~init ~grant] is an arbiter with no locks yet. [init ()]
    makes a lock's payload on first use; [grant lock payload ~proc ~write
    ~seq] is called once per grant, in grant order, after [proc] has
    become a holder. *)
val create :
  init:(unit -> 'a) ->
  grant:(Mc_history.Op.lock_name -> 'a -> proc:int -> write:bool -> seq:int -> unit) ->
  'a t

(** [request t lock ~proc ~write] appends a request to [lock]'s queue
    and grants from the front of the queue while the lock admits it. *)
val request : 'a t -> Mc_history.Op.lock_name -> proc:int -> write:bool -> unit

(** [release t lock ~proc ~write k] drops one hold of [proc] on [lock]
    in the given mode, calls [k payload ~seq] with the release's
    grant-order number, then grants queued requests as {!request} does.
    Raises [Invalid_argument] when [proc] holds no such lock: an unlock
    by a non-holder never frees another process's hold. *)
val release :
  'a t -> Mc_history.Op.lock_name -> proc:int -> write:bool -> ('a -> seq:int -> unit) -> unit

(** [grants_issued t] counts grants over all locks. *)
val grants_issued : 'a t -> int
