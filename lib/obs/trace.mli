(** Structured span/event tracer with pluggable sinks.

    Records timeline events keyed by caller-supplied timestamps (the DSM
    runtime passes simulated microseconds, which map one-to-one onto the
    Chrome [trace_event] [ts]/[dur] unit). Events land in a bounded
    in-memory ring buffer — oldest events are dropped once the buffer is
    full, with {!dropped} counting the casualties — and are mirrored to
    any attached {!sink}s as they are emitted.

    The tracer is engine-agnostic: it never reads a clock itself, so the
    library has no dependency on the simulator. *)

type event =
  | Complete of {
      name : string;
      cat : string;
      tid : int;  (** process id in the simulation; Chrome thread id *)
      ts : float;  (** start, µs *)
      dur : float;  (** duration, µs *)
      args : (string * string) list;
    }
  | Instant of {
      name : string;
      cat : string;
      tid : int;
      ts : float;
      args : (string * string) list;
    }
  | Flow of {
      id : int;  (** unique arc id, e.g. a message sequence number *)
      name : string;
      cat : string;
      src : int;  (** sender tid *)
      dst : int;  (** receiver tid *)
      ts_send : float;
      ts_recv : float;
      args : (string * string) list;
    }
  | Counter of { name : string; tid : int; ts : float; value : float }

type sink = {
  on_event : event -> unit;
  on_close : unit -> unit;
}

type t

(** [create ?capacity ()] — ring buffer capacity defaults to [65536]
    events and must be positive. *)
val create : ?capacity:int -> unit -> t

val add_sink : t -> sink -> unit

(** Emitters. [span] records a Complete slice; [instant] a point event;
    [flow] a send→deliver arc; [counter] a sampled counter track. *)
val span :
  t -> ?cat:string -> ?args:(string * string) list -> tid:int -> ts:float -> dur:float ->
  string -> unit

val instant :
  t -> ?cat:string -> ?args:(string * string) list -> tid:int -> ts:float -> string -> unit

val flow :
  t -> ?cat:string -> ?args:(string * string) list -> id:int -> src:int -> dst:int ->
  ts_send:float -> ts_recv:float -> string -> unit

val counter : t -> tid:int -> ts:float -> string -> float -> unit

(** Buffered events, oldest first (at most [capacity]). *)
val events : t -> event list

(** Total events ever emitted (not limited by the ring). *)
val event_count : t -> int

(** Total [Complete] spans of category ["op"] ever emitted (not limited
    by the ring). Auxiliary span categories — e.g. ["fetch"] round-trip
    slices — are excluded, so the count stays comparable to the number
    of recorded operations. *)
val span_count : t -> int

(** Events evicted from the ring so far. *)
val dropped : t -> int

val capacity : t -> int

(** Flush [on_close] on every sink (idempotent per sink list). *)
val close : t -> unit

(** One event as a Chrome [trace_event] JSON object. Flows render as two
    objects (ph ["s"] then ph ["f"] with [bp:"e"]), newline-joined. *)
val event_to_chrome_json : event -> string

(** Whole buffer as [{"traceEvents":[...]}], including thread-name
    metadata records for every tid seen. Suitable for about://tracing /
    Perfetto. *)
val to_chrome : t -> string
