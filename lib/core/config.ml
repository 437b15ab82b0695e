type propagation = Eager | Lazy | Demand | Entry

type t = {
  procs : int;
  propagation : propagation;
  record : bool;
  check_online : bool;
  check_model : Mc_consistency.Lattice.t option;
  await_label : Mc_history.Op.label;
  timestamped_updates : bool;
  groups : int list list;
  multicast : (Mc_history.Op.location -> int list option) option;
  placement : Mc_placement.Placement.t option;
  batch_max : int;
  batch_window : float;
  observe : bool;
  tracer : Mc_obs.Trace.t option;
}

let default ~procs =
  {
    procs;
    propagation = Lazy;
    record = false;
    check_online = false;
    check_model = None;
    await_label = Mc_history.Op.Causal;
    timestamped_updates = true;
    groups = [];
    multicast = None;
    placement = None;
    batch_max = 1;
    batch_window = 1.0;
    observe = false;
    tracer = None;
  }

let propagation_to_string = function
  | Eager -> "eager"
  | Lazy -> "lazy"
  | Demand -> "demand"
  | Entry -> "entry"

let pp_propagation fmt p = Format.pp_print_string fmt (propagation_to_string p)
