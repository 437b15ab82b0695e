(* mcdsm: command-line driver for the mixed-consistency DSM.

   Subcommands run each Section-5 application on a chosen memory system
   and optionally check the recorded history against the formal
   consistency definitions.

     mcdsm solver --variant barrier --workers 4 -n 16
     mcdsm em --procs 4 --steps 8 --memory invalidate
     mcdsm cholesky --variant counter -n 24
     mcdsm litmus *)

module Engine = Mc_sim.Engine
module Runtime = Mc_dsm.Runtime
module Config = Mc_dsm.Config
module Api = Mc_dsm.Api
module Op = Mc_history.Op
module Placement = Mc_placement.Placement
module Solver = Mc_apps.Linear_solver
module Em = Mc_apps.Em_field
module Sparse = Mc_apps.Sparse_spd
module Cholesky = Mc_apps.Cholesky
module Json = Mc_util.Json

type memory = Mixed | Central | Invalidate

let memory_conv =
  let parse = function
    | "mixed" -> Ok Mixed
    | "central" -> Ok Central
    | "invalidate" -> Ok Invalidate
    | s -> Error (`Msg (Printf.sprintf "unknown memory system %S" s))
  in
  let print fmt m =
    Format.pp_print_string fmt
      (match m with Mixed -> "mixed" | Central -> "central" | Invalidate -> "invalidate")
  in
  Cmdliner.Arg.conv (parse, print)

let propagation_conv =
  let parse = function
    | "eager" -> Ok Config.Eager
    | "lazy" -> Ok Config.Lazy
    | "demand" -> Ok Config.Demand
    | "entry" -> Ok Config.Entry
    | s -> Error (`Msg (Printf.sprintf "unknown propagation mode %S" s))
  in
  Cmdliner.Arg.conv (parse, Config.pp_propagation)

module Online = Mc_consistency.Online
module Read_rule = Mc_consistency.Read_rule
module Lattice = Mc_consistency.Lattice

(* the uniform lattice point the *online* checker can be asked to
   validate: witness-based models fall back to the offline check with a
   note on stderr (never stdout — it must stay JSON-pure) *)
let online_model ~check_online model =
  match model with
  | Some m when Online.supports m -> Some m
  | Some m ->
    if check_online then
      Printf.eprintf
        "note: model %s is not streamable (sim-time witness orders); the \
         online checker runs per-label and %s is checked offline\n"
        (Lattice.to_string m) (Lattice.to_string m);
    None
  | None -> None

(* run [f] on the chosen memory system; returns (result, sim time,
   messages, history if recorded, online checker if requested). On the
   mixed runtime the online checker runs during execution (streaming
   verdicts, runtime stability sweeps); on the baselines it replays the
   recorded history through the same engine afterwards. With [model]
   (and [check_online]) the online checker validates every memory read
   under that single lattice point instead of its declared label.
   [batch_max] is the mixed runtime's update batching. *)
let run_on ~memory ~procs ~propagation ~record ~check_online ?model ?placement
    ?(batch_max = 1) f =
  let model = online_model ~check_online model in
  if placement <> None && memory <> Mixed then
    invalid_arg "sharded placement requires the mixed memory system";
  match memory with
  | Mixed ->
    let engine = Engine.create () in
    let cfg =
      { (Config.default ~procs) with
        propagation; record; check_online; check_model = model; placement; batch_max }
    in
    let rt = Runtime.create engine cfg in
    let out = f (Api.spawn rt) in
    let time = Runtime.run rt in
    let history = if record then Some (Runtime.history rt) else None in
    ( out,
      time,
      Mc_net.Network.messages_sent (Runtime.network rt),
      history,
      Runtime.online_checker rt )
  | Central ->
    let engine = Engine.create () in
    let record' = record || check_online in
    let m = Mc_baselines.Sc_central.create engine ~record:record' ~procs () in
    let out = f (Mc_baselines.Sc_central.spawn m) in
    let time = Mc_baselines.Sc_central.run m in
    let h = if record' then Some (Mc_baselines.Sc_central.history m) else None in
    let checker =
      if check_online then Option.map (Online.check ?model) h else None
    in
    let history = if record then h else None in
    (out, time, Mc_baselines.Sc_central.messages_sent m, history, checker)
  | Invalidate ->
    let engine = Engine.create () in
    let record' = record || check_online in
    let m = Mc_baselines.Sc_invalidate.create engine ~record:record' ~procs () in
    let out = f (Mc_baselines.Sc_invalidate.spawn m) in
    let time = Mc_baselines.Sc_invalidate.run m in
    let h = if record' then Some (Mc_baselines.Sc_invalidate.history m) else None in
    let checker =
      if check_online then Option.map (Online.check ?model) h else None
    in
    let history = if record then h else None in
    (out, time, Mc_baselines.Sc_invalidate.messages_sent m, history, checker)

(* --------- check reports (shared by every app subcommand) ----------- *)

let label_string = function
  | Op.PRAM -> "pram"
  | Op.Causal -> "causal"
  | Op.Group _ -> "group"

let verdict_fields = function
  | Read_rule.Valid -> ("valid", None)
  | Read_rule.No_matching_write -> ("no_matching_write", None)
  | Read_rule.Overwritten o -> ("overwritten", Some o)

(* [labelled]: also name the read's declared label, as the per-label
   (offline and online) sections do; the one-model sections omit it *)
let failure_json ~labelled (f : Lattice.failure) =
  let verdict, over = verdict_fields f.Lattice.verdict in
  Printf.sprintf "{\"read_id\":%d%s,\"verdict\":%s%s}" f.Lattice.read_id
    (if labelled then ",\"label\":" ^ Json.quote (label_string f.Lattice.label) else "")
    (Json.quote verdict)
    (match over with Some o -> Printf.sprintf ",\"overwritten_by\":%d" o | None -> "")

let read_counts h =
  let pram = ref 0 and causal = ref 0 and group = ref 0 in
  Array.iter
    (fun (o : Op.t) ->
      match o.Op.kind with
      | Op.Read { label = Op.PRAM; _ } -> incr pram
      | Op.Read { label = Op.Causal; _ } -> incr causal
      | Op.Read { label = Op.Group _; _ } -> incr group
      | _ -> ())
    (Mc_history.History.ops h);
  (!pram, !causal, !group)

(* machine-readable check report, mirroring [lint --json]: one object
   with the app result fields, the verdict, per-rule read/failure counts
   and, in online mode, the engine's memory statistics. [extra] holds
   already-JSON-encoded (key, value) pairs from the app subcommand. *)
let check_json ~modelled ~offline ~extra ~checker () =
  let parts = ref [] in
  let add fmt = Printf.ksprintf (fun s -> parts := s :: !parts) fmt in
  List.iter (fun (k, v) -> add "%s:%s" (Json.quote k) v) extra;
  (match modelled with
  | Some (m, failures) ->
    add
      "\"model\":{\"name\":%s,\"consistent\":%b,\"streamable\":%b,\"failures\":[%s]}"
      (Json.quote (Lattice.to_string m)) (failures = []) (Online.supports m)
      (String.concat "," (List.map (failure_json ~labelled:false) failures))
  | None -> ());
  (match offline with
  | Some (h, failures) ->
    let pram, causal, group = read_counts h in
    add "\"offline\":{\"ops\":%d,\"well_formed\":%b,\"mixed_consistent\":%b,\"reads\":{\"pram\":%d,\"causal\":%d,\"group\":%d},\"failures\":[%s]}"
      (Mc_history.History.length h)
      (Mc_history.History.is_well_formed h)
      (failures = []) pram causal group
      (String.concat "," (List.map (failure_json ~labelled:true) failures))
  | None -> ());
  (match checker with
  | Some c ->
    let s = Online.stats c in
    add "\"online\":{\"ops_checked\":%d,\"mixed_consistent\":%b,\"reads\":{\"pram\":%d,\"causal\":%d,\"group\":%d},\"fetched_reads\":%d,\"failures\":[%s],\"chains\":%d,\"max_resident\":%d,\"live_summaries\":%d}"
      s.Online.ops_checked (Online.is_consistent c) s.Online.pram_reads
      s.Online.causal_reads s.Online.group_reads s.Online.fetched_reads
      (String.concat "," (List.map (failure_json ~labelled:true) (Online.failures c)))
      s.Online.chains s.Online.max_resident s.Online.live_summaries
  | None -> ());
  Printf.sprintf "{%s}" (String.concat "," (List.rev !parts))

let print_offline_report ~trace (h, failures) =
  if trace then begin
    print_endline "\n--- space-time diagram ---";
    print_string (Mc_history.Render.space_time h);
    let path = "history.dot" in
    let oc = open_out path in
    output_string oc (Mc_history.Render.dot h);
    close_out oc;
    Printf.printf "--- causality graph written to %s ---\n" path;
    print_string (Mc_history.Render.summary h)
  end;
  Printf.printf "history: %d ops, well-formed=%b, mixed-consistent=%b\n"
    (Mc_history.History.length h)
    (Mc_history.History.is_well_formed h)
    (failures = []);
  (if Mc_history.History.length h <= 60 then
     match Mc_consistency.Sequential.is_sequentially_consistent h with
     | Mc_consistency.Sequential.Consistent ->
       print_endline "sequentially consistent: yes"
     | Inconsistent -> print_endline "sequentially consistent: no"
     | Unknown -> print_endline "sequentially consistent: unknown (bound)");
  let report = Mc_analysis.Analysis.analyze h in
  print_endline "--- analysis ---";
  Format.printf "%a" Mc_analysis.Analysis.pp report

let print_online_report c =
  let s = Online.stats c in
  Printf.printf
    "online check: ops=%d reads=%d (pram=%d causal=%d group=%d) failures=%d\n"
    s.Online.ops_checked s.Online.reads_checked s.Online.pram_reads
    s.Online.causal_reads s.Online.group_reads s.Online.failure_count;
  Printf.printf
    "online memory: chains=%d in-flight high-water=%d live summaries=%d\n"
    s.Online.chains s.Online.max_resident s.Online.live_summaries;
  List.iter (fun f -> Format.printf "  %a@." Lattice.pp_failure f) (Online.failures c)

(* Print the requested reports; returns false when any requested check
   found an inconsistency, so every subcommand exits with the same
   status (1) on a consistency failure. Under [strict] a recorded
   history that is not well-formed also fails. Under [json] stdout
   carries exactly one JSON object — the app result fields ([extra])
   plus whichever check sections ran — with all human-readable lines on
   stderr, so `mcdsm <app> --json` is machine-parseable with or without
   --check. *)
let print_model_report (m, failures) =
  Printf.printf "model %s: consistent=%b failures=%d%s\n" (Lattice.to_string m)
    (failures = []) (List.length failures)
    (if Online.supports m then "" else " (offline: not streamable)");
  List.iter
    (fun (f : Lattice.failure) ->
      Format.printf "  read %d: %a@." f.read_id Read_rule.pp_verdict f.verdict)
    failures

let check_report ?(json = false) ?(trace = false) ?(strict = false) ?model
    ?(extra = []) ~history ~checker () =
  (* each failure list is computed once, for the report and the verdict *)
  let offline = Option.map (fun h -> (h, Lattice.failures h Lattice.Mixed)) history in
  let modelled =
    match (model, history) with
    | Some m, Some h -> Some (m, Lattice.failures h m)
    | _ -> None
  in
  if json then print_endline (check_json ~modelled ~offline ~extra ~checker ())
  else begin
    Option.iter (print_offline_report ~trace) offline;
    Option.iter print_model_report modelled;
    Option.iter print_online_report checker
  end;
  let clean o = Option.fold ~none:true ~some:(fun (_, fs) -> fs = []) o in
  clean offline
  && Option.fold ~none:true ~some:Online.is_consistent checker
  && clean modelled
  && (not strict
     || Option.fold ~none:true ~some:Mc_history.History.is_well_formed history)

let exit_if_inconsistent ok = if not ok then exit 1

(* app result lines go to stderr under --json so stdout is exactly the
   machine-readable report *)
let info ~json fmt =
  Printf.ksprintf (fun s -> if json then prerr_string s else print_string s) fmt

open Cmdliner

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed.")

let procs_arg default =
  Arg.(value & opt int default & info [ "p"; "procs" ] ~docv:"P" ~doc:"Number of processes.")

let memory_arg =
  Arg.(
    value
    & opt memory_conv Mixed
    & info [ "memory" ] ~docv:"MEM" ~doc:"Memory system: mixed, central or invalidate.")

let propagation_arg =
  Arg.(
    value
    & opt propagation_conv Config.Lazy
    & info [ "propagation" ] ~docv:"MODE" ~doc:"Lock propagation: eager, lazy, demand or entry.")

let record_arg =
  Arg.(value & flag & info [ "check" ] ~doc:"Record the execution and run the consistency checkers.")

let trace_arg =
  Arg.(
    value & flag
    & info [ "trace" ]
        ~doc:
          "With --check: print a space-time diagram and write the causality \
           graph to history.dot.")

let check_online_arg =
  Arg.(
    value & flag
    & info [ "check-online" ]
        ~doc:
          "Validate every read at response time with the streaming checker \
           and report its memory statistics. On the mixed memory the checker \
           runs during execution; on the baselines the recorded history is \
           replayed through it. Exits with status 1 on an inconsistency, like \
           --check.")

let check_json_arg =
  Arg.(
    value & flag
    & info [ "json" ]
        ~doc:
          "With --check or --check-online: emit the check report as a single \
           JSON object (verdict, per-rule read and failure counts, streaming \
           memory statistics) instead of text.")

let model_conv =
  let parse s = Result.map_error (fun e -> `Msg e) (Lattice.of_string s) in
  Cmdliner.Arg.conv (parse, Lattice.pp)

let model_arg =
  Arg.(
    value
    & opt (some model_conv) None
    & info [ "model" ] ~docv:"MODEL"
        ~doc:
          "Check the execution against one consistency-lattice point \
           (implies --check): sc, linearizable, processor, cache, causal, \
           mixed, pram, slow, group:0,1,..., session[:ryw,mr|:none]. \
           Streamable points (causal, pram, mixed, group, session) also \
           drive --check-online; witness-based points (sc, linearizable, \
           processor, cache, slow) are checked offline. Exits with status \
           1 when any read violates the model.")

let check_strict_arg =
  Arg.(
    value & flag
    & info [ "strict" ]
        ~doc:
          "With --check or --check-online: additionally exit with status 1 \
           when the recorded history is not well-formed. (Consistency \
           failures always exit with status 1.)")

let shards_arg =
  Arg.(
    value & opt int 0
    & info [ "shards" ] ~docv:"S"
        ~doc:
          "Run on the sharded, partially-replicated DSM with $(docv) \
           shards: each process subscribes only the shards it writes, \
           other reads are served by demand fetches from the shard home. \
           Requires the mixed memory and the solver's barrier variant; 0 \
           (the default) keeps full replication.")

let placement_conv =
  let parse s = Result.map_error (fun e -> `Msg e) (Placement.policy_of_string s) in
  Arg.conv (parse, fun fmt p -> Format.pp_print_string fmt (Placement.policy_to_string p))

let placement_arg =
  Arg.(
    value
    & opt placement_conv (Placement.Range { objects = 0 })
    & info [ "placement" ] ~docv:"POLICY"
        ~doc:
          "With --shards: the location-to-shard policy, range (contiguous \
           object-id slices, the default) or hash.")

(* the solver's sharded placement: a range policy slices the [n]
   unknowns, and each process subscribes the shards it writes *)
let solver_placement ~shards ~policy ~procs ~n =
  let policy =
    match policy with
    | Placement.Range _ -> Placement.Range { objects = n }
    | policy -> policy
  in
  let pl = Placement.create ~shards ~policy () in
  Solver.subscribe_shards pl ~procs ~n;
  pl

(* ---------------- solver ---------------- *)

let solver_cmd =
  let variant_conv =
    let parse = function
      | "barrier" -> Ok Solver.Barrier_pram
      | "handshake" -> Ok Solver.Handshake_causal
      | "handshake-pram" -> Ok Solver.Handshake_pram
      | s -> Error (`Msg (Printf.sprintf "unknown variant %S" s))
    in
    Arg.conv (parse, fun fmt v -> Format.pp_print_string fmt (Solver.variant_to_string v))
  in
  let run n workers variant memory propagation record check_online model json strict trace seed shards policy =
    let procs = workers + 1 in
    let record = record || model <> None in
    let placement =
      if shards <= 0 then None
      else begin
        if variant <> Solver.Barrier_pram then begin
          prerr_endline
            "mcdsm solver: --shards requires --variant barrier (write \
             ownership is per-row; the handshake variants write shared \
             handshake locations from every process)";
          exit 2
        end;
        Some (solver_placement ~shards ~policy ~procs ~n)
      end
    in
    let problem = Solver.Problem.generate ~seed ~n in
    let expected = Solver.reference ~variant problem in
    let res, time, msgs, history, checker =
      run_on ~memory ~procs ~propagation ~record ~check_online ?model ?placement
        (fun spawn -> Solver.launch ~spawn ~procs ~variant problem)
    in
    let r = Option.get !res in
    info ~json "%s: n=%d workers=%d iters=%d converged=%b\n"
      (Solver.variant_to_string variant)
      n workers r.Solver.iterations r.Solver.converged;
    let exact = r.Solver.x = expected.Solver.x in
    info ~json "sim time=%.1fus messages=%d exact=%b\n" time msgs exact;
    let extra =
      [
        ("app", Json.quote "solver");
        ("variant", Json.quote (Solver.variant_to_string variant));
        ("iterations", string_of_int r.Solver.iterations);
        ("converged", string_of_bool r.Solver.converged);
        ("sim_time_us", Printf.sprintf "%.1f" time);
        ("messages", string_of_int msgs);
        ("exact", string_of_bool exact);
      ]
      @
      match placement with
      | None -> []
      | Some pl ->
        [
          ("shards", string_of_int shards);
          ("placement", Json.quote (Placement.policy_to_string (Placement.policy pl)));
        ]
    in
    exit_if_inconsistent
      (check_report ~json ~strict ~trace ?model ~extra ~history ~checker ())
  in
  let n_arg = Arg.(value & opt int 16 & info [ "n" ] ~docv:"N" ~doc:"System size.") in
  let workers_arg =
    Arg.(value & opt int 4 & info [ "w"; "workers" ] ~docv:"W" ~doc:"Worker count.")
  in
  let variant_arg =
    Arg.(
      value
      & opt variant_conv Solver.Barrier_pram
      & info [ "variant" ] ~docv:"V" ~doc:"barrier, handshake or handshake-pram.")
  in
  Cmd.v
    (Cmd.info "solver" ~doc:"Iterative linear-equation solver (Sec. 5.1, Figs. 2-3)")
    Term.(
      const run $ n_arg $ workers_arg $ variant_arg $ memory_arg $ propagation_arg
      $ record_arg $ check_online_arg $ model_arg $ check_json_arg $ check_strict_arg $ trace_arg $ seed_arg
      $ shards_arg $ placement_arg)

(* ---------------- em ---------------- *)

let em_cmd =
  let run procs steps cols memory propagation record check_online model json strict trace seed =
    let record = record || model <> None in
    let params = { Em.rows = 4 * procs; cols; steps; seed } in
    let expected = Em.reference ~procs params in
    let res, time, msgs, history, checker =
      run_on ~memory ~procs ~propagation ~record ~check_online ?model (fun spawn ->
          Em.launch ~spawn ~procs params)
    in
    let r = Option.get !res in
    info ~json "EM field %dx%d, %d steps on %d procs\n" params.Em.rows cols steps
      procs;
    let exact = r.Em.checksum = expected.Em.checksum in
    info ~json "sim time=%.1fus messages=%d exact=%b energy=%d\n" time msgs exact
      r.Em.energy;
    let extra =
      [
        ("app", Json.quote "em");
        ("steps", string_of_int steps);
        ("energy", string_of_int r.Em.energy);
        ("sim_time_us", Printf.sprintf "%.1f" time);
        ("messages", string_of_int msgs);
        ("exact", string_of_bool exact);
      ]
    in
    exit_if_inconsistent
      (check_report ~json ~strict ~trace ?model ~extra ~history ~checker ())
  in
  let steps_arg = Arg.(value & opt int 8 & info [ "steps" ] ~doc:"Update rounds.") in
  let cols_arg = Arg.(value & opt int 8 & info [ "cols" ] ~doc:"Grid width.") in
  Cmd.v
    (Cmd.info "em" ~doc:"Electromagnetic field computation (Sec. 5.2, Fig. 4)")
    Term.(
      const run $ procs_arg 4 $ steps_arg $ cols_arg $ memory_arg $ propagation_arg
      $ record_arg $ check_online_arg $ model_arg $ check_json_arg $ check_strict_arg $ trace_arg $ seed_arg)

(* ---------------- cholesky ---------------- *)

let cholesky_cmd =
  let variant_conv =
    let parse = function
      | "lock" -> Ok Cholesky.Lock_based
      | "counter" -> Ok Cholesky.Counter_based
      | s -> Error (`Msg (Printf.sprintf "unknown variant %S" s))
    in
    Arg.conv
      (parse, fun fmt v -> Format.pp_print_string fmt (Cholesky.variant_to_string v))
  in
  let run n density variant memory propagation record check_online model json strict trace seed =
    let record = record || model <> None in
    let m = Sparse.generate ~seed ~n ~density in
    let lref = Sparse.factor_reference m in
    let res, time, msgs, history, checker =
      run_on ~memory ~procs:4 ~propagation ~record ~check_online ?model (fun spawn ->
          Cholesky.launch ~spawn ~procs:4 ~variant m)
    in
    let r = Option.get !res in
    info ~json "%s: n=%d nnz(L)=%d\n"
      (Cholesky.variant_to_string variant)
      n (Sparse.nnz m);
    let exact = r.Cholesky.l = lref in
    info ~json "sim time=%.1fus messages=%d exact=%b max_error=%d\n" time msgs
      exact r.Cholesky.max_error;
    let extra =
      [
        ("app", Json.quote "cholesky");
        ("variant", Json.quote (Cholesky.variant_to_string variant));
        ("max_error", string_of_int r.Cholesky.max_error);
        ("sim_time_us", Printf.sprintf "%.1f" time);
        ("messages", string_of_int msgs);
        ("exact", string_of_bool exact);
      ]
    in
    exit_if_inconsistent
      (check_report ~json ~strict ~trace ?model ~extra ~history ~checker ())
  in
  let n_arg = Arg.(value & opt int 24 & info [ "n" ] ~doc:"Matrix dimension.") in
  let density_arg =
    Arg.(value & opt float 0.2 & info [ "density" ] ~doc:"Off-diagonal density.")
  in
  let variant_arg =
    Arg.(
      value
      & opt variant_conv Cholesky.Lock_based
      & info [ "variant" ] ~docv:"V" ~doc:"lock or counter.")
  in
  Cmd.v
    (Cmd.info "cholesky" ~doc:"Sparse Cholesky factorization (Sec. 5.3, Fig. 5)")
    Term.(
      const run $ n_arg $ density_arg $ variant_arg $ memory_arg $ propagation_arg
      $ record_arg $ check_online_arg $ model_arg $ check_json_arg $ check_strict_arg $ trace_arg $ seed_arg)

(* ---------------- lint ---------------- *)

let litmus_catalog () =
  let module Dsl = Mc_history.Dsl in
  [
    ( "dekker",
      Dsl.make ~procs:2
        [ [ Dsl.w "x" 1; Dsl.rc "y" 0 ]; [ Dsl.w "y" 1; Dsl.rc "x" 0 ] ] );
    ( "message-passing",
      Dsl.make ~procs:2
        [ [ Dsl.w "x" 42; Dsl.w "f" 1 ]; [ Dsl.rc "f" 1; Dsl.rc "x" 42 ] ] );
    ( "transitive-chain-pram",
      Dsl.make ~procs:3
        [
          [ Dsl.w "x" 1 ];
          [ Dsl.rp "x" 1; Dsl.w "y" 2 ];
          [ Dsl.rp "y" 2; Dsl.rp "x" 0 ];
        ] );
    ( "racy-writes",
      Dsl.make ~procs:2
        [ [ Dsl.w "x" 1; Dsl.rp "y" 0 ]; [ Dsl.w "x" 2; Dsl.w "y" 1 ] ] );
    ( "bad-lock-discipline",
      Dsl.make ~procs:2
        [
          [ Dsl.wl ~seq:0 "l"; Dsl.w "x" 1 ];
          [ Dsl.rl ~seq:1 "l"; Dsl.w "x" 2; Dsl.ru ~seq:2 "l" ];
        ] );
    ( "await-never-fires",
      Dsl.make ~procs:2 [ [ Dsl.await "f" 5 ]; [ Dsl.w "f" 1 ] ] );
    ( "over-labelled",
      Dsl.make ~procs:2 [ [ Dsl.w "x" 1 ]; [ Dsl.rc "x" 1 ] ] );
  ]

(* the EXP-DELIVERY bench workload shape: phase-disciplined writes with
   post-barrier PRAM reads, a lock-protected accumulator and an
   await-signalled finish (mixed runtime only: batching is a
   mixed-memory feature). *)
let spawn_delivery_workload spawn =
  for i = 0 to 3 do
    spawn i (fun api ->
        for round = 1 to 3 do
          for k = 0 to 5 do
            api.Api.write
              (Printf.sprintf "d:%d:%d" i k)
              ((round * 100) + (10 * i) + k)
          done;
          api.Api.barrier ();
          for j = 0 to 3 do
            ignore
              (api.Api.read ~label:Op.PRAM
                 (Printf.sprintf "d:%d:%d" j (round mod 6)))
          done;
          api.Api.write_lock "sum";
          let v = api.Api.read "acc" in
          api.Api.write "acc" (v + 1);
          api.Api.write_unlock "sum";
          api.Api.barrier ()
        done;
        if i = 0 then api.Api.write "go" 1 else api.Api.await "go" 1)
  done

(* The small workloads behind lint, check, metrics, trace and report,
   as (name, procs, batch_max, launch): the barrier solver with
   [small_n] unknowns on 3 processes, an 8x4 EM field for 2 steps on 2,
   lock-based Cholesky of an 8x8 matrix at density 0.2 on 4, and the
   delivery workload on 4 with batches of up to 8 updates. Inputs are
   generated at launch, so looking up a name or size costs nothing. *)
let small_n = 8

let small_app ~seed = function
  | `Solver ->
    ( "solver", 3, 1,
      fun spawn ->
        Solver.Problem.generate ~seed ~n:small_n
        |> Solver.launch ~spawn ~procs:3 ~variant:Solver.Barrier_pram
        |> ignore )
  | `Em ->
    ( "em", 2, 1,
      fun spawn ->
        ignore (Em.launch ~spawn ~procs:2 { Em.rows = 8; cols = 4; steps = 2; seed }) )
  | `Cholesky ->
    ( "cholesky", 4, 1,
      fun spawn ->
        Sparse.generate ~seed ~n:8 ~density:0.2
        |> Cholesky.launch ~spawn ~procs:4 ~variant:Cholesky.Lock_based
        |> ignore )
  | `Delivery -> ("delivery", 4, 8, spawn_delivery_workload)

(* record one small history per requested app — shared by `lint` (full
   analysis pipeline) and `check` (lattice-model conformance); delivery
   runs on the mixed runtime whatever [memory] says *)
let app_histories app memory propagation seed =
  let record app =
    let name, procs, batch_max, launch = small_app ~seed app in
    let memory = if app = `Delivery then Mixed else memory in
    let _, _, _, h, _ =
      run_on ~memory ~procs ~propagation ~record:true ~check_online:false ~batch_max launch
    in
    (name, Option.get h)
  in
  match app with
  | `Litmus -> litmus_catalog ()
  | (`Solver | `Em | `Cholesky | `Delivery) as app -> [ record app ]
  | `All -> litmus_catalog () @ List.map record [ `Solver; `Em; `Cholesky; `Delivery ]

let lint_app_arg =
  Arg.(
    value
    & opt
        (enum
           [
             ("litmus", `Litmus);
             ("solver", `Solver);
             ("em", `Em);
             ("cholesky", `Cholesky);
             ("delivery", `Delivery);
             ("all", `All);
           ])
        `Litmus
    & info [ "app" ] ~docv:"APP"
        ~doc:"History source: litmus, solver, em, cholesky, delivery or all.")

let lint_cmd =
  let run app json strict memory propagation seed =
    let reports =
      List.map
        (fun (name, h) -> (name, Mc_analysis.Analysis.analyze h))
        (app_histories app memory propagation seed)
    in
    if json then begin
      print_string "[";
      List.iteri
        (fun i (name, r) ->
          if i > 0 then print_string ",";
          Printf.printf "{\"name\":%s,\"report\":%s}" (Json.quote name)
            (Mc_analysis.Analysis.to_json r))
        reports;
      print_endline "]"
    end
    else
      List.iter
        (fun (name, r) ->
          Printf.printf "== %s ==\n" name;
          Format.printf "%a" Mc_analysis.Analysis.pp r)
        reports;
    if strict && List.exists (fun (_, r) -> Mc_analysis.Analysis.has_errors r) reports
    then exit 1
  in
  let json_arg =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit machine-readable JSON.")
  in
  let strict_arg =
    Arg.(
      value & flag
      & info [ "strict" ] ~doc:"Exit with status 1 if any error is reported.")
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Run the race detector, discipline linter and label advisor on \
          recorded histories")
    Term.(
      const run $ lint_app_arg $ json_arg $ strict_arg $ memory_arg $ propagation_arg
      $ seed_arg)

(* ---------------- check ---------------- *)

(* [mcdsm check]: record one small history per app and validate every
   memory read against one lattice point. Streamable models are also
   replayed through the online engine, and the two verdicts are
   compared; witness-based models check offline only. Follows the
   [info ~json] discipline: with --json, stdout carries exactly one
   JSON array. *)
let check_cmd =
  let run app model online json strict memory propagation seed shards policy =
    let model = Option.value model ~default:Lattice.Mixed in
    let streamable = Online.supports model in
    (* Sharded runs must stream the checker during execution: only the
       runtime knows which reads were demand fetches and what snapshot
       each fetch saw, so an after-the-fact [Online.check] replay (no
       fetch notes) would hold them to the full-replication rule. The
       offline verdict set is accordingly restricted to non-fetched
       reads — on those, sharded delivery must agree with the offline
       checker verdict-for-verdict. *)
    let sharded_solver () =
      if app <> `Solver then begin
        prerr_endline "mcdsm check: --shards supports --app solver only";
        exit 2
      end;
      if memory <> Mixed then begin
        prerr_endline "mcdsm check: --shards requires --memory mixed";
        exit 2
      end;
      let _, procs, _, launch = small_app ~seed `Solver in
      let placement = solver_placement ~shards ~policy ~procs ~n:small_n in
      let _, _, _, h, checker =
        run_on ~memory ~procs ~propagation ~record:true ~check_online:streamable ~model
          ~placement launch
      in
      let h = Option.get h in
      let fetched =
        match checker with Some c -> Online.fetched_ids c | None -> []
      in
      let unfetched =
        List.filter (fun (f : Lattice.failure) -> not (List.mem f.Lattice.read_id fetched))
      in
      let failures = unfetched (Lattice.failures h model) in
      (* against the closure engine: [Lattice.failures] may itself be
         a replay of the same checker *)
      let online_agrees =
        match checker with
        | Some c when online ->
          Some (Online.failures c = unfetched (Lattice.closure_failures h model))
        | _ -> None
      in
      [ ("solver", h, failures, Mc_history.History.is_well_formed h, online_agrees) ]
    in
    let results =
      if shards > 0 then sharded_solver ()
      else
        List.map
          (fun (name, h) ->
            let failures = Lattice.failures h model in
            let well_formed = Mc_history.History.is_well_formed h in
            let online_agrees =
              if online && streamable then
                Some
                  (Online.failures (Online.check ~model h)
                  = Lattice.closure_failures h model)
              else None
            in
            (name, h, failures, well_formed, online_agrees))
          (app_histories app memory propagation seed)
    in
    if json then begin
      print_string "[";
      List.iteri
        (fun i (name, h, failures, well_formed, online_agrees) ->
          if i > 0 then print_string ",";
          Printf.printf
            "{\"name\":%s,\"model\":%s,\"shards\":%d,\"ops\":%d,\"well_formed\":%b,\"consistent\":%b,\"streamable\":%b%s,\"failures\":[%s]}"
            (Json.quote name)
            (Json.quote (Lattice.to_string model))
            shards
            (Mc_history.History.length h)
            well_formed (failures = []) streamable
            (match online_agrees with
            | Some b -> Printf.sprintf ",\"online_agrees\":%b" b
            | None -> "")
            (String.concat "," (List.map (failure_json ~labelled:false) failures)))
        results;
      print_endline "]"
    end
    else
      List.iter
        (fun (name, h, failures, well_formed, online_agrees) ->
          Printf.printf "== %s ==\n" name;
          Printf.printf "ops=%d well-formed=%b\n"
            (Mc_history.History.length h) well_formed;
          print_model_report (model, failures);
          Option.iter
            (fun b -> Printf.printf "online checker agrees: %b\n" b)
            online_agrees)
        results;
    if
      strict
      && List.exists
           (fun (_, _, failures, well_formed, online_agrees) ->
             failures <> [] || (not well_formed)
             || online_agrees = Some false)
           results
    then exit 1
  in
  let online_arg =
    Arg.(
      value & flag
      & info [ "online" ]
          ~doc:
            "Also replay each history through the streaming checker under \
             the model (streamable models only) and report whether its \
             verdict set agrees with the closure engine's.")
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Emit one JSON array of per-history conformance reports on \
             stdout; human-readable lines go to stderr.")
  in
  let strict_arg =
    Arg.(
      value & flag
      & info [ "strict" ]
          ~doc:
            "Exit with status 1 on any non-conforming read, ill-formed \
             history or online/offline disagreement.")
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Record app histories and validate every read against one \
          consistency-lattice point")
    Term.(
      const run $ lint_app_arg $ model_arg $ online_arg $ json_arg $ strict_arg
      $ memory_arg $ propagation_arg $ seed_arg $ shards_arg $ placement_arg)

(* ---------------- metrics / trace ---------------- *)

module Metrics = Mc_obs.Metrics
module Obs_trace = Mc_obs.Trace

(* run one Section-5 app on the mixed runtime with the full Mc_obs
   instrumentation attached; returns the runtime and the final sim
   time *)
let observed_run ?placement ?(check_online = false) ~app ~propagation ~seed
    ~record ~tracer () =
  let engine = Engine.create () in
  let _, procs, batch_max, launch = small_app ~seed app in
  let cfg =
    {
      (Config.default ~procs) with
      propagation;
      record;
      batch_max;
      observe = true;
      tracer;
      placement;
      check_online;
    }
  in
  let rt = Runtime.create engine cfg in
  launch (Api.spawn rt);
  let time = Runtime.run rt in
  (rt, time)

let obs_app_arg =
  Cmdliner.Arg.(
    value
    & opt
        (enum
           [
             ("solver", `Solver);
             ("em", `Em);
             ("cholesky", `Cholesky);
             ("delivery", `Delivery);
           ])
        `Solver
    & info [ "app" ] ~docv:"APP"
        ~doc:"Workload: solver, em, cholesky or delivery.")

let out_arg =
  Cmdliner.Arg.(
    value
    & opt (some string) None
    & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Write the dump to FILE.")

let write_file path payload =
  let oc = open_out path in
  output_string oc payload;
  output_char oc '\n';
  close_out oc

let metrics_cmd =
  let run app propagation seed json out =
    let rt, time =
      observed_run ~app ~propagation ~seed ~record:false ~tracer:None ()
    in
    let reg = Runtime.metrics rt in
    let payload =
      if json then Metrics.Registry.to_json reg
      else Format.asprintf "%a" Metrics.Registry.pp reg
    in
    info ~json "sim time=%.1fus series=%d\n" time
      (Metrics.Registry.series_count reg);
    match out with
    | Some path ->
      write_file path payload;
      if json then
        Printf.printf "{\"out\":%s,\"series\":%d,\"sim_time_us\":%.1f}\n"
          (Json.quote path)
          (Metrics.Registry.series_count reg)
          time
      else Printf.printf "metrics written to %s\n" path
    | None -> print_string (payload ^ if json then "\n" else "")
  in
  Cmd.v
    (Cmd.info "metrics"
       ~doc:
         "Run an app with observability on and dump the metric registry \
          (counters, gauges, histograms)")
    Term.(
      const run $ obs_app_arg $ propagation_arg $ seed_arg
      $ Arg.(value & flag & info [ "json" ] ~doc:"Emit the registry as JSON.")
      $ out_arg)

let trace_cmd =
  let run app propagation seed json out format buffer =
    let tracer = Obs_trace.create ~capacity:buffer () in
    let rt, time =
      observed_run ~app ~propagation ~seed ~record:true ~tracer:(Some tracer) ()
    in
    let name, _, _, _ = small_app ~seed app in
    let ops = Mc_history.History.length (Runtime.history rt) in
    let spans = Obs_trace.span_count tracer in
    let events = Obs_trace.event_count tracer in
    let dropped = Obs_trace.dropped tracer in
    let payload =
      match format with
      | `Chrome -> Obs_trace.to_chrome tracer
      | `Jsonl ->
        String.concat "\n"
          (List.map Obs_trace.event_to_chrome_json (Obs_trace.events tracer))
    in
    let path = Option.value out ~default:"trace.json" in
    write_file path payload;
    if dropped > 0 then
      info ~json
        "warning: ring buffer overflowed, %d event(s) dropped (raise --buffer)\n"
        dropped;
    info ~json "sim time=%.1fus spans=%d events=%d ops=%d -> %s\n" time spans
      events ops path;
    if json then
      Printf.printf
        "{\"app\":%s,\"out\":%s,\"spans\":%d,\"events\":%d,\"dropped\":%d,\"ops\":%d,\"sim_time_us\":%.1f,\"spans_match_ops\":%b}\n"
        (Json.quote name)
        (Json.quote path) spans events dropped ops time (spans = ops);
    if spans <> ops then begin
      info ~json "error: span count %d does not match recorded op count %d\n"
        spans ops;
      exit 1
    end
  in
  let format_arg =
    Arg.(
      value
      & opt (enum [ ("chrome", `Chrome); ("jsonl", `Jsonl) ]) `Chrome
      & info [ "format" ] ~docv:"FMT"
          ~doc:
            "chrome: one trace_event JSON object for about://tracing; jsonl: \
             one event object per line.")
  in
  let buffer_arg =
    Arg.(
      value & opt int 65536
      & info [ "buffer" ] ~docv:"N" ~doc:"Tracer ring-buffer capacity (events).")
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Run an app with the span tracer attached and export a Chrome \
          trace_event timeline (op spans, sync epochs, message arcs)")
    Term.(
      const run $ obs_app_arg $ propagation_arg $ seed_arg
      $ Arg.(
          value & flag
          & info [ "json" ] ~doc:"Print a machine-readable summary on stdout.")
      $ out_arg $ format_arg $ buffer_arg)

(* ---------------- report ---------------- *)

module Report = Mc_obs.Report

(* Join every online-checker verdict to its causal path: the checker
   names the read and (for overwritten verdicts) the interposing write;
   the runtime's shard log resolves each recorded value to its (writer,
   shard, sseq) stream coordinates, and the flight recorder yields the
   tree hops and apply times of that update. An incomplete flight is a
   value still in transit — the usual shape of an engineered staleness
   violation (e.g. a paused link). *)
let assemble_violations rt checker =
  let h = Runtime.history rt in
  let fetched = Online.fetched_ids checker in
  let prov_and_path loc value =
    match Runtime.shard_write_source rt ~loc ~value with
    | None -> (None, [], [], true)
    | Some (w, s, q) -> (
      let prov = Some { Report.p_writer = w; p_shard = s; p_sseq = q } in
      match Runtime.shard_flight rt ~writer:w ~shard:s ~sseq:q with
      | None -> (prov, [], [], true)
      | Some fi ->
        ( prov,
          List.map
            (fun (src, dst, sent, recv) ->
              { Report.h_src = src; h_dst = dst; h_sent = sent; h_recv = recv })
            fi.Runtime.fi_hops,
          fi.Runtime.fi_applies,
          fi.Runtime.fi_complete ))
  in
  List.map
    (fun (f : Lattice.failure) ->
      let op = Mc_history.History.op h f.Lattice.read_id in
      let loc, value =
        match op.Op.kind with
        | Op.Read { loc; value; _ } -> (loc, value)
        | _ -> ("?", 0)
      in
      let verdict, over = verdict_fields f.Lattice.verdict in
      let v_source, v_path, _, _ = prov_and_path loc value in
      let v_overwritten_by =
        Option.map
          (fun w_id ->
            let wop = Mc_history.History.op h w_id in
            let wvalue =
              match Op.writes_value wop with
              | Some (wloc, wv) when wloc = loc -> wv
              | _ -> 0
            in
            let o_source, o_path, o_applies, o_complete =
              prov_and_path loc wvalue
            in
            {
              Report.o_write_id = w_id;
              o_value = wvalue;
              o_source;
              o_path;
              o_applies;
              o_complete;
            })
          over
      in
      {
        Report.v_read_id = f.Lattice.read_id;
        v_proc = op.Op.proc;
        v_loc = loc;
        v_label = label_string f.Lattice.label;
        v_verdict = verdict;
        v_value = value;
        v_fetched = List.mem f.Lattice.read_id fetched;
        v_source;
        v_path;
        v_overwritten_by;
      })
    (Online.failures checker)

(* The engineered-staleness demo workload of [mcdsm report --app
   violation]: writer 2 writes shard 0 (direct edge 2 -> 1, paused) then
   shard 1 (whose tree routes 2 -> 0 -> 1); process 1 observes the later
   write and then PRAM-reads the older location stale — a real PRAM
   violation whose causal path the audit must exhibit. One extra read of
   an unsubscribed location exercises the demand-fetch path. *)
let violation_run ~tracer =
  let engine = Engine.create () in
  let pl =
    Placement.create ~shards:3 ~policy:(Placement.Range { objects = 30 })
      ~fanout:1 ()
  in
  List.iter (fun n -> Placement.subscribe pl ~node:n ~shard:0) [ 1; 2 ];
  List.iter (fun n -> Placement.subscribe pl ~node:n ~shard:1) [ 0; 1; 2 ];
  Placement.subscribe pl ~node:0 ~shard:2;
  let cfg =
    {
      (Config.default ~procs:3) with
      record = true;
      check_online = true;
      observe = true;
      placement = Some pl;
      await_label = Op.PRAM;
      tracer = Some tracer;
    }
  in
  let rt = Runtime.create engine cfg in
  Mc_net.Network.pause_link (Runtime.network rt) ~src:2 ~dst:1;
  Runtime.spawn_process rt 2 (fun p ->
      Runtime.write p "s:5" 11;
      Runtime.write p "s:15" 22);
  Runtime.spawn_process rt 1 (fun p ->
      Runtime.await p "s:15" 22;
      ignore (Runtime.read p ~label:Op.PRAM "s:5");
      ignore (Runtime.read p ~label:Op.PRAM "s:25"));
  let time = Runtime.run rt in
  (rt, time)

let report_cmd =
  let read_file path =
    let ic = open_in_bin path in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    s
  in
  let run app propagation seed shards policy json top out trace_file
      metrics_file buffer =
    let propagation_str =
      Format.asprintf "%a" Config.pp_propagation propagation
    in
    let input =
      match trace_file with
      | Some tpath ->
        (* trace-file mode: re-analyze an exported trace (and optional
           metrics dump); no checker ran here, so the audit is marked
           unavailable rather than claimed clean *)
        let events = Report.parse_trace (read_file tpath) in
        let metrics =
          match metrics_file with
          | Some mpath -> Report.parse_metrics (read_file mpath)
          | None -> []
        in
        info ~json "trace-file mode: %d event(s) from %s\n"
          (List.length events) tpath;
        {
          Report.events;
          metrics;
          violations = None;
          meta =
            [ ("mode", "trace-file"); ("trace", Filename.basename tpath) ]
            @
            (match metrics_file with
            | Some mpath -> [ ("metrics", Filename.basename mpath) ]
            | None -> []);
        }
      | None ->
        (* live mode: run the app with metrics + tracer + recorder +
           online checker attached, then analyze in-process *)
        let tracer = Obs_trace.create ~capacity:buffer () in
        let rt, time, app_name, shards =
          match app with
          | `Violation ->
            let rt, time = violation_run ~tracer in
            (rt, time, "violation", 3)
          | (`Solver | `Em | `Cholesky | `Delivery) as app ->
            let name, procs, _, _ = small_app ~seed app in
            let placement =
              if shards <= 0 then None
              else begin
                if app <> `Solver then begin
                  prerr_endline
                    "mcdsm report: --shards supports --app solver only";
                  exit 2
                end;
                Some (solver_placement ~shards ~policy ~procs ~n:small_n)
              end
            in
            let rt, time =
              observed_run ?placement ~check_online:true ~app ~propagation
                ~seed ~record:true ~tracer:(Some tracer) ()
            in
            (rt, time, name, shards)
        in
        let violations =
          Option.map (assemble_violations rt) (Runtime.online_checker rt)
        in
        if Obs_trace.dropped tracer > 0 then
          info ~json
            "warning: ring buffer overflowed, %d event(s) dropped (raise \
             --buffer)\n"
            (Obs_trace.dropped tracer);
        info ~json "sim time=%.1fus events=%d series=%d\n" time
          (Obs_trace.event_count tracer)
          (Metrics.Registry.series_count (Runtime.metrics rt));
        {
          Report.events = Obs_trace.events tracer;
          metrics = Metrics.Registry.snapshot (Runtime.metrics rt);
          violations;
          meta =
            [
              ("mode", "live");
              ("app", app_name);
              ("propagation", propagation_str);
              ("seed", string_of_int seed);
              ("shards", string_of_int shards);
              ("sim_time_us", Printf.sprintf "%.1f" time);
            ];
        }
    in
    let report = Report.analyze ~top_k:top input in
    let payload =
      if json then Report.to_json report else Report.to_text report
    in
    match out with
    | Some path ->
      write_file path payload;
      if json then
        Printf.printf "{\"out\":%s,\"events\":%d}\n" (Json.quote path)
          report.Report.r_events
      else Printf.printf "report written to %s\n" path
    | None -> print_string (payload ^ if json then "\n" else "")
  in
  let app_arg =
    Arg.(
      value
      & opt
          (enum
             [
               ("solver", `Solver);
               ("em", `Em);
               ("cholesky", `Cholesky);
               ("delivery", `Delivery);
               ("violation", `Violation);
             ])
          `Solver
      & info [ "app" ] ~docv:"APP"
          ~doc:
            "Live-mode workload: solver, em, cholesky, delivery, or \
             violation (an engineered stale read on a paused link, to \
             demonstrate the audit).")
  in
  let top_arg =
    Arg.(
      value & opt int 5
      & info [ "top" ] ~docv:"K"
          ~doc:"Rows in the slowest-shard and hottest-key rankings.")
  in
  let trace_in_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Analyze an exported trace (chrome or jsonl) instead of \
             running an app. The violation audit needs the online \
             checker, so it is unavailable in this mode.")
  in
  let metrics_in_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics" ] ~docv:"FILE"
          ~doc:"With --trace: a `mcdsm metrics --json` dump to include.")
  in
  let buffer_arg =
    Arg.(
      value & opt int 65536
      & info [ "buffer" ] ~docv:"N" ~doc:"Tracer ring-buffer capacity (events).")
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Postmortem analyzer: per-shard visibility-latency percentiles, \
          demand-fetch round trips, gap-buffer stalls, hottest keys and a \
          violation audit joining checker verdicts to their causal paths")
    Term.(
      const run $ app_arg $ propagation_arg $ seed_arg $ shards_arg
      $ placement_arg
      $ Arg.(
          value & flag
          & info [ "json" ]
              ~doc:
                "Emit the report as one deterministic JSON object on \
                 stdout; human-readable lines go to stderr.")
      $ top_arg $ out_arg $ trace_in_arg $ metrics_in_arg $ buffer_arg)

(* ---------------- analyze ---------------- *)

(* [mcdsm analyze]: the symbolic analyzer over the IR models of the
   Section-5 applications — no execution, verdicts hold at every
   parameter valuation. Follows the [info ~json] discipline: with
   --json, stdout carries exactly one JSON array of per-program
   reports. *)
let analyze_cmd =
  let module St = Mc_static.Static in
  let module Sm = Mc_apps.Static_models in
  let progs_of = function
    | `Solver ->
      [ Sm.solver_barrier; Sm.solver_handshake ~labels:Sm.Hs_group () ]
    | `Em -> [ Sm.em_field ]
    | `Cholesky -> [ Sm.cholesky ]
    | `All -> Sm.all ()
  in
  let run app json strict proof lattice =
    let reports = List.map St.analyze (progs_of app) in
    if json then begin
      List.iter
        (fun (r : St.report) ->
          info ~json "%s: %s (weakest model %s)\n" r.St.program
            (Mc_static.Classify.verdict_to_string r.St.verdict)
            (Mc_static.Classify.lmodel_to_string
               r.St.lattice.Mc_static.Classify.weakest))
        reports;
      print_endline
        ("[" ^ String.concat "," (List.map St.to_json reports) ^ "]")
    end
    else
      List.iter (fun r -> St.pp ~proof ~lattice Format.std_formatter r) reports;
    if strict && List.exists St.has_errors reports then exit 1
  in
  let app_arg =
    Arg.(
      value
      & opt
          (enum
             [ ("solver", `Solver); ("em", `Em); ("cholesky", `Cholesky);
               ("all", `All) ])
          `All
      & info [ "app" ] ~docv:"APP"
          ~doc:
            "Programs to analyze: solver (barrier and group-handshake \
             variants), em, cholesky, or all.")
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Emit one JSON array of per-program reports on stdout; \
             human-readable lines go to stderr.")
  in
  let strict_arg =
    Arg.(
      value & flag
      & info [ "strict" ]
          ~doc:"Exit with status 1 when any S0xx error is reported.")
  in
  let proof_arg =
    Arg.(
      value & flag
      & info [ "proof" ]
          ~doc:
            "Print the verdict justification and the per-read label table \
             with inference proofs.")
  in
  let lattice_arg =
    Arg.(
      value & flag
      & info [ "lattice" ]
          ~doc:
            "Print the weakest consistency-lattice model the program \
             provably tolerates, its per-read decomposition and the \
             per-axiom proof trace. (Always present in --json output.)")
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Statically prove the Section-5 IR models SC and infer weakest \
          read labels, without executing them")
    Term.(const run $ app_arg $ json_arg $ strict_arg $ proof_arg $ lattice_arg)

(* ---------------- litmus ---------------- *)

let litmus_cmd =
  let run () =
    let show name h =
      let sc =
        match Mc_consistency.Sequential.is_sequentially_consistent h with
        | Mc_consistency.Sequential.Consistent -> "SC"
        | Inconsistent -> "not SC"
        | Unknown -> "SC?"
      in
      Printf.printf "%-28s PRAM:%-3b causal:%-3b mixed:%-3b %s\n" name
        (Lattice.is_consistent h Lattice.PRAM)
        (Lattice.is_consistent h Lattice.Causal)
        (Lattice.is_consistent h Lattice.Mixed)
        sc
    in
    let catalog = litmus_catalog () in
    List.iter
      (fun name -> show name (List.assoc name catalog))
      [ "dekker"; "message-passing"; "transitive-chain-pram" ]
  in
  Cmd.v
    (Cmd.info "litmus" ~doc:"Check classic litmus histories against the definitions")
    Term.(const run $ const ())

(* Every failure ends the same way: one line, "mcdsm: <message>", on
   stderr, and exit status 2 for a bad flag value (whether the run or the
   command-line parser rejects it), an unknown subcommand or an
   unreadable or malformed file, 1 for a run that deadlocked. *)
let () =
  let info =
    Cmd.info "mcdsm" ~version:"1.0.0"
      ~doc:"Mixed-consistency distributed shared memory (PODC '94 reproduction)"
  in
  let cmd =
    Cmd.group info
      [
        solver_cmd;
        em_cmd;
        cholesky_cmd;
        analyze_cmd;
        check_cmd;
        litmus_cmd;
        lint_cmd;
        metrics_cmd;
        trace_cmd;
        report_cmd;
      ]
  in
  let fail status msg =
    prerr_endline ("mcdsm: " ^ msg);
    status
  in
  (* Cmdliner reports a flag value it rejects itself as "mcdsm: <message>",
     a usage line and a hint; keep the message, joined onto one line *)
  let parse_error text =
    let rec message = function
      | l :: rest when not (String.starts_with ~prefix:"Usage:" l) -> l :: message rest
      | _ -> []
    in
    let msg =
      String.split_on_char '\n' text
      |> List.map String.trim
      |> List.filter (( <> ) "")
      |> message |> String.concat " "
    in
    let prefix = "mcdsm: " in
    if String.starts_with ~prefix msg then
      String.sub msg (String.length prefix) (String.length msg - String.length prefix)
    else msg
  in
  let err = Buffer.create 256 in
  let err_fmt = Format.formatter_of_buffer err in
  exit
    (try
       match Cmd.eval_value ~catch:false ~err:err_fmt cmd with
       | Ok (`Ok () | `Help | `Version) -> 0
       | Error (`Parse | `Term | `Exn) ->
         Format.pp_print_flush err_fmt ();
         fail 2 (parse_error (Buffer.contents err))
     with
    | Invalid_argument msg | Sys_error msg -> fail 2 msg
    | Json.Parse_error msg -> fail 2 ("malformed JSON input: " ^ msg)
    | Engine.Deadlock msg -> fail 1 ("run deadlocked: " ^ msg))
