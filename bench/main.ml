(* The bench driver: runs the selected experiments of EXPERIMENTS.md,
   prints their tables, writes the BENCH_CORE.json sections of those
   that have one, and exits 1 with one stderr line per failed claim.
   Wall-clock benchmarks of the end-to-end workloads live in perfbench/.

   Usage:
     bench/main.exe                 run every experiment
     bench/main.exe --exp f2f3      run one experiment (repeatable)
     bench/main.exe --quick         smaller sweeps *)

open Mc_bench

let experiments : Exp.t list =
  [
    Exp_f2f3.t; Exp_f3pram.t; Exp_f4.t; Exp_f5.t; Exp_spectrum.t; Exp_prop.t; Exp_barrier.t;
    Exp_theory.t; Exp_group.t; Exp_async.t; Exp_multicast.t; Exp_prodcon.t; Exp_lint.t;
    Exp_delivery.t; Exp_online.t; Exp_obs.t; Exp_static.t; Exp_lattice.t; Exp_shard.t;
    Exp_obs_shard.t;
  ]

let () =
  let ids = List.map (fun (e : Exp.t) -> e.id) experiments in
  let usage problem =
    Printf.eprintf "%s\nusage: main.exe [--quick] [--exp <%s>]...\n" problem
      (String.concat "|" ids);
    exit 2
  in
  let argv = List.tl (Array.to_list Sys.argv) in
  let rec parse quick selected = function
    | [] -> (quick, selected)
    | "--quick" :: rest -> parse true selected rest
    | "--exp" :: id :: rest ->
      if not (List.mem id ids) then usage (Printf.sprintf "unknown experiment %s" id);
      parse quick (id :: selected) rest
    | arg :: _ -> usage (Printf.sprintf "unknown argument %s" arg)
  in
  let quick, selected = parse false [] argv in
  let results =
    List.filter_map
      (fun (e : Exp.t) ->
        if selected <> [] && not (List.mem e.id selected) then None
        else
          let out = e.run ~quick in
          Render.print out;
          Some (e, out))
      experiments
  in
  let sections =
    List.filter_map
      (fun ((e : Exp.t), (out : Exp.output)) ->
        if out.json = [] then None else Some (e.name, out.json))
      results
  in
  if sections <> [] then begin
    Out_channel.with_open_text "BENCH_CORE.json" (fun oc ->
        output_string oc (Render.bench_core ~seed:Harness.bench_seed ~quick ~argv sections));
    print_endline "raw numbers: BENCH_CORE.json"
  end;
  let failed = List.concat_map (fun (e, out) -> Exp.failed_claims e out) results in
  List.iter prerr_endline failed;
  if failed <> [] then exit 1
