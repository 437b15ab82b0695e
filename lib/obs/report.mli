(** Postmortem analyzer over trace events and metric points.

    The same aggregation runs over a live tracer's event buffer and over
    a re-parsed trace file, so live-mode and file-mode reports agree by
    construction. Rendering is deterministic: every collection is sorted
    and floats are printed with fixed precision, so two reports of the
    same (seeded) run are byte-identical. *)

(** The frozen [perfbench/test_perfbench.ml] reads JSON under this name. *)
module Json = Mc_util.Json

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

(** One update's flight as the trace shows it: its tree hops by send
    time, its subscriber applies as (node, applied at) by time, and
    whether every remote subscriber counted at routing applied it
    ([false]: still in flight). Ties keep the newest event first. *)
type flight = {
  f_hops : hop list;
  f_applies : (int * float) list;
  f_complete : bool;
}

(** The later write that makes a stale read a violation. *)
type overwrite = {
  o_write_id : int;
  o_value : int;
  o_source : provenance option;
}

(** An online-checker verdict: the read, the provenance of the value it
    returned and, for [Overwritten] verdicts, the interposing write. The
    report joins each provenance to its flight in the trace. *)
type violation = {
  v_read_id : int;
  v_proc : int;
  v_loc : string;
  v_label : string;
  v_verdict : string;
  v_value : int;
  v_fetched : bool;
  v_source : provenance option;
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
  r_flights : (provenance * flight) list;
      (** the flight of every provenance the violations name *)
}

(** [analyze ?top_k input] aggregates events and metrics into a report.
    One join of the [shard] events by (writer, shard, sseq) — the
    [shard_send] instant, the hop arcs and the [shard_apply] instants —
    feeds both the shard rows and the violations' flights; [top_k]
    (default 5) bounds the slowest-shard and hottest-key rankings. *)
val analyze : ?top_k:int -> input -> report

(** Deterministic single-line JSON rendering (all floats [%.1f] µs). *)
val to_json : report -> string

(** Human-readable rendering of the same content. *)
val to_text : report -> string
