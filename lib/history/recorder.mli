(** Incremental history recording for runtime systems.

    The recorder is an event source: every invocation and completed
    operation is pushed to the subscribed {!Sink}s in real-time order.
    The traditional offline path — materialize the full operation array,
    then build a {!History} — is one built-in sink (enabled by default);
    streaming consumers such as the online consistency checker subscribe
    alongside it and never need the whole run in memory.

    Event sequence numbers are process-local and monotone, so operations
    recorded sequentially by one fiber are totally ordered in program
    order, while [start]/[finish] allow overlapping (non-blocking)
    operations. *)

type t

(** [create ?materialize ~procs ()] makes a recorder for processes
    [0..procs-1]. When [materialize] is [true] (the default) a
    full-materialize store sink is subscribed so {!history} works; pass
    [false] for streaming-only recording with O(1) memory in the
    recorder itself. *)
val create : ?materialize:bool -> procs:int -> unit -> t

val procs : t -> int

(** [subscribe t sink] adds a streaming consumer. Sinks receive events in
    subscription order (the materialize store, when present, is first).
    Raises [Invalid_argument] if the recorder is closed. *)
val subscribe : t -> Sink.t -> unit

(** [record t ~proc ?sync_seq kind] records a complete operation whose
    invocation and response are adjacent events. Returns the op id. *)
val record : t -> proc:int -> ?sync_seq:int -> Op.kind -> int

(** [start t ~proc] marks an invocation event and returns a token. *)
type token

val start : t -> proc:int -> token

(** [finish t token ?sync_seq kind] records the response for a started
    operation. Returns the op id. *)
val finish : t -> token -> ?sync_seq:int -> Op.kind -> int

(** [grant_seq t lock] returns the next grant-order number for the named
    lock object (used by lock managers to stamp lock/unlock operations). *)
val grant_seq : t -> string -> int

(** [notify_dead t ~loc ~value] forwards a runtime stability
    notification to the sinks: no future operation will read [value] at
    [loc] (see {!Sink.t.on_dead}). *)
val notify_dead : t -> loc:Op.location -> value:Op.value -> unit

(** [close t] ends the run: sinks receive [on_close] exactly once and
    further recording raises. Idempotent. *)
val close : t -> unit

(** [history t] snapshots the recorded operations into a history. Raises
    [Invalid_argument] for a recorder created with [~materialize:false]. *)
val history : t -> History.t
