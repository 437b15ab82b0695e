(** Incremental structural engine for online consistency checking.

    Fed with recorder events (via {!sink}) or an already-materialized
    history (via {!feed_history}), the engine finalizes every operation
    exactly once, in an order that is topological for the full causality
    covering graph, and hands each finalized operation to the consumer
    together with its chain position and covering in-edges:

    - {!U} edges form the program-order chain covering (greedy first-fit
      chain decomposition: an operation joins the first chain of its
      process whose last response precedes its invocation);
    - {!S} edges form the structural sync covering (lock epoch surfaces
      and pairs, barrier first-following / last-preceding episode edges),
      edge-for-edge identical to [History.sync_order_reduced];
    - {!RF} edges are reads-from, resolved through a per-location,
      per-value writer registry.

    Every per-reader consistency relation of the paper is the transitive
    closure of a subgraph of this covering, so a checker can fold
    per-family chain clocks in a single pass over [on_finalize]; the
    online checker ([Mc_consistency.Online]) does. The race detector
    ([Mc_analysis.Race]) takes its chains and [U]/[S] edges from here
    and its reads-from from [History], which also links a read to a
    writer of its value that completes after it.

    The engine is parameterized by the consumer's per-operation state
    ['a]: [on_finalize] returns it, the engine keeps it on the
    operation, and hands it back through the in-edges of every later
    operation ({!state}). Operations link to each other by reference, so
    a consumer needs no table of its own to find an edge's source.

    Memory is bounded by the in-flight window: once a finalized
    operation's last internal reference is dropped it is retired
    ([on_retire]) and the engine forgets it, except that a writer stays
    reachable as an [RF] source until its value is dead.

    Restrictions for exact offline agreement (see DESIGN.md), decided
    by {!meets_restrictions}: unique writes per location, no writes of
    the initial value 0, no process in one barrier episode twice (no
    reuse of plain barrier indices), no overlapping barriers on one
    process, and distinct non-negative grant numbers per lock. Within
    them the covering equals [History]'s, so a replay decides every
    streamable lattice point exactly as the offline closures do. *)

(** A finalized operation, seen as the source of an in-edge. *)
type 'a src

(** [state s] is the state [on_finalize] returned for [s]. *)
val state : 'a src -> 'a

type 'a edge =
  | U of 'a src  (** program-order covering edge from the given op *)
  | S of 'a src  (** sync-order covering edge from the given op *)
  | RF of 'a src  (** reads-from edge from the given writer *)

type 'a info = {
  op : Op.t;
  chain : int;  (** global chain id of the operation *)
  rank : int;  (** position of the operation on its chain, from 0 *)
  in_edges : 'a edge list;  (** covering in-edges, in no particular order *)
}

type 'a callbacks = {
  on_finalize : 'a info -> 'a;
      (** called exactly once per operation, in an order topological for
          the covering graph, so every in-edge's source is finalized;
          returns the operation's state *)
  on_retire : int -> unit;
      (** the operation with this id left the in-flight window; per-op
          state may be dropped by consumers that mirror engine residence *)
  on_dead_value : loc:Op.location -> value:Op.value -> unit;
      (** forwarded stability notification: no op will read this value
          again and all its past readers have finalized *)
  on_end : unit -> unit;  (** the stream is complete *)
}

type 'a t

(** [create ~procs cb] makes an engine for processes [0..procs-1]. *)
val create : procs:int -> 'a callbacks -> 'a t

(** [sink t] adapts the engine to a {!Sink.t} for [Recorder.subscribe].
    The engine finalizes operations as their causal covering past
    completes and raises [Invalid_argument] on close if the recorded
    causality is cyclic. *)
val sink : 'a t -> Sink.t

(** [replay t h] replays a materialized history through the engine
    (invocations in process order, responses gated on id order) and
    closes it. It stands in for the runtime's stability notifications:
    after the last operation, in id order, that reads a value (a read,
    an await, or a decrement's observed value) it announces the value
    dead, and [on_dead_value] fires once every reader of it has
    finalized. Raises [Invalid_argument] if the history's event
    sequencing is inconsistent or its causality cyclic. *)
val replay : 'a t -> History.t -> unit

(** [feed_history ~callbacks h] is {!replay} on a fresh engine. *)
val feed_history : callbacks:'a callbacks -> History.t -> 'a t

(** [meets_restrictions h]: does [h] meet every restriction above? One
    pass over the operations, in time linear in the history, on the
    first call; the answer is memoized on [h]. *)
val meets_restrictions : History.t -> bool

(** {2 Statistics} *)

(** Number of concurrency chains allocated so far. *)
val chains : 'a t -> int

(** High-water mark of the operations resident in the in-flight window. *)
val max_resident : 'a t -> int
