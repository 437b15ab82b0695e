(** Driver for the static-analysis passes over a recorded history.

    [analyze] runs the three cooperating analyses — the {!Race} detector
    (R001/R002), the {!Lint} discipline rules (L001–L006) and the
    {!Advisor} label recommendations (A001–A003) — and merges their
    diagnostics into one sorted stream with summary counts. *)

type report = {
  races : Race.report;
  advice : Advisor.advice list;
  diags : Diag.t list;  (** merged from all passes, sorted *)
  errors : int;
  warnings : int;
  infos : int;
}

val analyze : Mc_history.History.t -> report

val has_errors : report -> bool

(** Human-readable report: one line per diagnostic plus a summary. *)
val pp : Format.formatter -> report -> unit

(** Machine-readable report (hand-rolled JSON, no dependencies). *)
val to_json : report -> string
