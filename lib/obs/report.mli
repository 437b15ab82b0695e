(** Postmortem analyzer over trace events and metric points.

    The same aggregation runs over a live tracer's event buffer and over
    a re-parsed trace file, so live-mode and file-mode reports agree by
    construction. Rendering is deterministic: every collection is sorted
    and floats are printed with fixed precision, so two reports of the
    same (seeded) run are byte-identical. *)

(** Minimal JSON reader for the formats this library itself writes
    (Chrome traces, JSONL sinks, {!Metrics.Registry.to_json} dumps), and
    the string quoter its writers share. *)
module Json : sig
  type v =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | List of v list
    | Obj of (string * v) list

  exception Parse_error of string

  val parse : string -> v

  (** [quote s] is [s] as a JSON string literal: the quote, the
      backslash and control characters are escaped and every other byte,
      UTF-8 included, is kept as is, so [parse (quote s) = Str s]. *)
  val quote : string -> string
end

(** [parse_trace s] re-reads a trace in either Chrome form
    ([{"traceEvents": [...]}]) or JSONL form (one event object per
    line). Flow arcs are re-paired from their ph ["s"]/["f"] halves by
    shared id; metadata records are dropped. Raises {!Json.Parse_error}
    on malformed input. *)
val parse_trace : string -> Trace.event list

(** [parse_metrics s] re-reads a {!Metrics.Registry.to_json} dump.
    The [help] text is not round-tripped (the exporter omits it). *)
val parse_metrics : string -> Metrics.point list

(** Nearest-rank percentile summary of a latency sample set (µs). *)
type stat = { n : int; mean : float; p50 : float; p95 : float; max : float }

val stat_of_samples : float list -> stat option

(** Count/mean/max summary carried over from a histogram metric. *)
type msum = { m_count : int; m_mean : float; m_max : float }

(** One shard's flight summary: dissemination volume, visibility
    latency, demand-fetch round trips and gap-buffer behaviour. *)
type shard_row = {
  sr_shard : int;
  sr_updates : int;  (** shard_send instants (routed updates) *)
  sr_hops : int;  (** tree-edge flow arcs *)
  sr_applies : int;  (** subscriber-side applies *)
  sr_in_flight : int;  (** updates not yet applied everywhere *)
  sr_vis : stat option;  (** routed → applied at one subscriber (µs) *)
  sr_vis_full : stat option;  (** routed → applied at every subscriber *)
  sr_fetches : int;
  sr_fetch : stat option;  (** demand-fetch round trip (µs) *)
  sr_gap_high_water : float option;  (** [mc_shard_gap_depth] high water *)
  sr_gap_stalls : int option;  (** [mc_shard_gap_buffered_total] *)
  sr_staleness : msum option;  (** [mc_shard_staleness_updates] *)
}

type hot_key = { hk_loc : string; hk_reads : int; hk_writes : int }

(** One tree-edge transmission on a value's causal path. *)
type hop = { h_src : int; h_dst : int; h_sent : float; h_recv : float }

(** Stream coordinates of the write that produced a value. *)
type provenance = { p_writer : int; p_shard : int; p_sseq : int }

(** The later write that makes a stale read a violation, with its own
    causal path and apply record. [o_complete = false] means the write
    was still in flight — never applied at every subscriber. *)
type overwrite = {
  o_write_id : int;
  o_value : int;
  o_source : provenance option;
  o_path : hop list;
  o_applies : (int * float) list;
  o_complete : bool;
}

(** An online-checker verdict joined to the trace: the read, the
    provenance and causal path of the value it returned, and (for
    [Overwritten] verdicts) the interposing write's path. *)
type violation = {
  v_read_id : int;
  v_proc : int;
  v_loc : string;
  v_label : string;
  v_verdict : string;
  v_value : int;
  v_fetched : bool;
  v_source : provenance option;
  v_path : hop list;
  v_overwritten_by : overwrite option;
}

(** Analyzer input. [violations = None] means the audit is unavailable
    (trace-file mode, where no checker ran); [Some []] is a clean run. *)
type input = {
  events : Trace.event list;
  metrics : Metrics.point list;
  violations : violation list option;
  meta : (string * string) list;
}

type report = {
  r_meta : (string * string) list;
  r_events : int;
  r_op_spans : int;
  r_flows : int;
  r_instants : int;
  r_shards : shard_row list;
  r_slowest : (int * float) list;  (** (shard, visibility p95), worst first *)
  r_hot_keys : hot_key list;
  r_staleness : msum option;  (** global [mc_read_staleness_updates] *)
  r_placement : (int * int) option;  (** (churn, tree builds) *)
  r_violations : violation list option;
}

(** [analyze ?top_k input] aggregates events and metrics into a report.
    Shard rows join [shard_send] instants to [shard_apply] instants by
    (writer, shard, sseq); [top_k] (default 5) bounds the slowest-shard
    and hottest-key rankings. *)
val analyze : ?top_k:int -> input -> report

(** Deterministic single-line JSON rendering (all floats [%.1f] µs). *)
val to_json : report -> string

(** Human-readable rendering of the same content. *)
val to_text : report -> string
