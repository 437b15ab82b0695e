(** Barrier combining tree (Section 6). Every node runs one combiner.
    The combiners of a barrier form a k-ary heap tree
    ({!Mc_placement.Placement.Tree}) rooted at node 0: over all
    processes in id order for a full barrier, over node 0 followed by
    the members for a subset barrier (node 0 then combines without
    arriving). A node sends its subtree's arrival to its parent once it
    and all its children have arrived; the root then sends a release
    down the tree, which every node forwards to its children. The
    runtime picks the fanout ([Runtime.barrier_fanout]); one of at
    least the number of processes puts every process directly under
    node 0: Section 6's central barrier manager, message for message.

    What the messages carry ({!Protocol.barrier_clock}) depends on the
    replication:
    - Full replication: [Vector] clocks. Arrivals carry applied-update
      counts, merged by pointwise maximum; the release carries the
      maximum, which each process applies before leaving.
    - Placement: [Counts] entries [(writer, shard, count)], the nonzero
      per-(writer, shard) stream sequence numbers. An entry is routed
      only as far as the members that subscribe to its shard: a
      subtree's arrival carries the entries a member outside it needs,
      the node keeps those a member inside it needs, and a release to a
      child carries the entries written outside the child's subtree
      that a member inside it needs. No node holds per-process state. *)

type t

(** [create ~node ~tree ~receivers ~send ~on_release] is node
    [node]'s combiner. [tree members] is the barrier tree of a member
    set ([[]] for all processes); [receivers shard] lists the shard's
    subscribers, which decide where a [Counts] entry goes (a shard
    without receivers has its entries dropped; [Vector] clocks never
    consult it); [send] transmits from [node]; [on_release] hands
    [node] its own part of a release when it is a member. *)
val create :
  node:int ->
  tree:(int list -> Mc_placement.Placement.Tree.t) ->
  receivers:(int -> int list) ->
  send:(dst:int -> Protocol.msg -> unit) ->
  on_release:(members:int list -> episode:int -> Protocol.barrier_clock -> unit) ->
  t

(** [join t ~members ~episode clock] makes [node] arrive: its arrival
    goes to its own combiner (a loopback message) when it has children
    or is the root, and to its parent otherwise. *)
val join : t -> members:int list -> episode:int -> Protocol.barrier_clock -> unit

(** [handle t ~src msg] processes a [Barrier_arrive] or a
    [Barrier_release]. Raises [Invalid_argument] on an arrival whose
    [proc] is not [src], from a non-member or a node that is not a
    child, or a second arrival of one sender in one episode. *)
val handle : t -> src:int -> Protocol.msg -> unit

(** [episodes_released t] counts the episodes this node released as the
    root (for tests). *)
val episodes_released : t -> int
