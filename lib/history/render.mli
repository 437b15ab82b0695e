(** Rendering of histories for humans: ASCII space-time diagrams and
    Graphviz exports of the causality relation. *)

(** [space_time h] lays the history out as one column per process, rows
    in invocation order, e.g.:

    {v
    p0              p1              p2
    --------------  --------------  --------------
    w(x)1
                    rc(x)1
                                    rp(x)0
    v} *)
val space_time : History.t -> string

(** [dot h] is a Graphviz digraph of the causality relation's transitive
    reduction: nodes are operations (clustered per process), edges are
    labelled by their source relation (program order, reads-from, or
    the lock or barrier covering; an await's edge is its reads-from
    edge). *)
val dot : History.t -> string

(** [summary h] is a short textual profile: op counts by kind, per
    process, plus the sizes of the causality relation and of its base
    ({!History.causality_base}, the covering it is closed over). *)
val summary : History.t -> string
