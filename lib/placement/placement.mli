(** Object placement for the sharded, partially-replicated DSM.

    The Section-6 implementation sketch replicates every variable at
    every node; this module removes that assumption. A placement maps
    every location to exactly one {e shard} and every shard to the set
    of nodes {e subscribed} to it. Writers disseminate a shard's updates
    only to its subscribers, along a deterministic k-ary multicast tree
    rooted at the writer; everyone else obtains values on demand
    (read-miss fetch from the shard's {!home} subscriber).

    Formally this is the partition-consistency construction of
    Steinke/Nutt specialized to the paper's model: ordering guarantees
    (per-writer FIFO, per-shard causality) hold {e within} a shard, and
    cross-shard ordering is recovered through synchronization operations
    (Section 6's barrier update-count vectors). An [Explicit] policy
    expresses a program's access pattern, Section 6's alternative to a
    broadcast per update: a shard per pattern, subscribed by its users. *)

type t

(** Static assignment of locations to shards. [Hash] spreads locations
    by string hash. [Range ~objects] assigns locations with a numeric
    suffix ("x:17") to contiguous ranges of [objects / shards] ids —
    the layout that keeps one worker's rows on one shard; locations
    without a numeric suffix fall back to hashing. [Explicit f] is a
    program's own map, with [f loc] in [0 .. shards - 1]. *)
type policy =
  | Hash
  | Range of { objects : int }
  | Explicit of (Mc_history.Op.location -> int)

val policy_to_string : policy -> string
val policy_of_string : string -> (policy, string) result
(** [policy_of_string] accepts ["hash"] and ["range"] (with
    [Range { objects = 0 }] meaning "size taken from [shards]"); the
    caller patches [objects] when it knows the workload size. An
    [Explicit] map has no textual form. *)

(** [create ~shards ~policy ()] builds a placement with no subscribers.
    [fanout] (default 4) bounds each node's out-degree in the per-shard
    dissemination trees; the runtime's barrier tree uses at least this
    fanout. *)
val create : shards:int -> policy:policy -> ?fanout:int -> unit -> t

val shards : t -> int
val fanout : t -> int
val policy : t -> policy

(** [shard_of_loc t loc] is the shard owning [loc] (memoized). Raises
    [Invalid_argument] if an [Explicit] map sends [loc] out of range. *)
val shard_of_loc : t -> Mc_history.Op.location -> int

(** {1 Subscriptions}

    The subscription API configures which nodes replicate which shards.
    Subscriptions are set up before the runtime is created; the replica
    layer additionally supports mid-stream churn via snapshot handshakes
    (see {!Mc_dsm.Replica.subscribe_shard}). *)

val subscribe : t -> node:int -> shard:int -> unit
val unsubscribe : t -> node:int -> shard:int -> unit
val is_subscribed : t -> node:int -> shard:int -> bool

(** [subscribers t ~shard] is the sorted list of subscribed nodes. *)
val subscribers : t -> shard:int -> int list

(** [subscriptions t ~node] is the sorted list of shards [node]
    subscribes to. *)
val subscriptions : t -> node:int -> int list

(** [home t ~shard] is the deterministic fetch target for non-subscriber
    reads: the least subscriber id ([None] when the shard has no
    subscribers, i.e. was never written). Fetching always from the same
    home over a FIFO channel makes successive fetched reads of a
    location monotone in the home's per-shard apply order. *)
val home : t -> shard:int -> int option

(** {1 Trees} *)

(** The k-ary heap layout every tree of a placement uses: over a node
    order whose first node is the root, the node at position [i] has
    the nodes at positions [k*i+1 .. k*i+k] as children. The
    dissemination trees lay it over a shard's subscribers; the runtime's
    barrier lays it over the processes, rooted at node 0. A fanout of at
    least the order's length puts every other node directly under the
    root. *)
module Tree : sig
  type t

  (** [create ~fanout order] lays the heap over [order] (root first).
      Raises [Invalid_argument] on an empty order, a repeated node or a
      non-positive fanout. *)
  val create : fanout:int -> int array -> t

  val mem : t -> int -> bool

  (** [parent t node] is [None] for the root. The functions taking a
      node raise [Invalid_argument] when it is not in the tree. *)
  val parent : t -> int -> int option

  (** [children t node], in order of position. *)
  val children : t -> int -> int list

  (** [covers t ~node target]: [target] is [node] or one of its
      descendants. *)
  val covers : t -> node:int -> int -> bool

  (** [child_count t node] is the length of [children t node]. *)
  val child_count : t -> int -> int

  (** [child_slot t ~node target] is the index in [children t node] of
      the child whose subtree holds [target]; [-1] when [target] is
      [node] or lies outside its subtree. *)
  val child_slot : t -> node:int -> int -> int
end

(** {1 Dissemination trees} *)

(** [children t ~shard ~root ~node] are the nodes [node] must forward a
    shard-[shard] update originated by [root] to. The tree is the
    {!Tree} layout over the sorted subscriber list rotated so [root]
    comes first; it is deterministic per (shard, root), so consecutive
    updates of one (writer, shard) stream traverse identical FIFO paths
    and arrive in order at every subscriber. Results are memoized and
    the cache is invalidated by subscription changes. *)
val children : t -> shard:int -> root:int -> node:int -> int list

(** {1 Observability} *)

(** [attach_metrics t reg] registers [mc_placement_churn_total]
    (subscription changes), [mc_placement_tree_builds_total]
    (dissemination-tree cache misses) and a per-shard
    [mc_shard_subscribers{shard}] callback gauge — O(shards) series,
    independent of operation count. *)
val attach_metrics : t -> Mc_obs.Metrics.Registry.t -> unit

val pp : Format.formatter -> t -> unit
