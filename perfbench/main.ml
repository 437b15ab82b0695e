(* The benchmark's command line; see run.py, which builds and runs it:

     python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

   Prints progress on stderr and, as the last line of stdout, one JSON
   object: {"correct", "attempted", "failed", "metrics"}. With --trace 0
   the metrics are the end-to-end ones, with --trace 1 the per-layer
   ones; the traced run also writes its spans, as a Chrome trace, to
   perfbench-out/<workload>-<seed>.trace.json. --describe prints the
   design record (workload reasons, mcdsm equivalents, each per-layer
   metric's target end-to-end metric and workloads). *)

open Perfbench

let usage =
  "main.exe --workload (solver-online|cholesky-locks|shard-1000|check-offline) \
   [--seed N] [--seconds S] [--trace 0|1] | --describe"

let () =
  let workload = ref "" and seed = ref Spec.default_seed and seconds = ref 20.
  and trace = ref 0 and describe = ref false in
  let fail msg =
    prerr_endline ("perfbench: " ^ msg ^ "\nusage: " ^ usage);
    exit 2
  in
  (try
     Arg.parse_argv Sys.argv
       [
         ("--workload", Arg.Set_string workload, "NAME workload to run");
         ("--seed", Arg.Set_int seed, "N seed of the generated inputs");
         ("--seconds", Arg.Set_float seconds, "S length of the timed phase");
         ("--trace", Arg.Set_int trace, "0|1 untraced (end-to-end) or traced (per-layer) run");
         ("--describe", Arg.Set describe, " print the design record and exit");
       ]
       (fun a -> fail ("unexpected argument " ^ a))
       usage
   with
  | Arg.Bad msg -> fail (List.hd (String.split_on_char '\n' msg))
  | Arg.Help msg ->
    print_string msg;
    exit 0);
  if !describe then print_endline (Spec.describe ())
  else begin
    let w =
      match Workloads.find Workloads.Full !workload with
      | Some w -> w
      | None -> fail ("unknown workload " ^ !workload)
    in
    if not (Float.is_finite !seconds && !seconds >= 0.) then
      fail "--seconds must be a non-negative number";
    let min_iters = 3 in
    let result =
      match !trace with
      | 0 -> Runner.untraced w ~seed:!seed ~seconds:!seconds ~min_iters
      | 1 ->
        let dir = "perfbench-out" in
        if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
        let trace_file =
          Filename.concat dir (Printf.sprintf "%s-%d.trace.json" w.Workloads.name !seed)
        in
        Runner.traced ~trace_file w ~seed:!seed ~seconds:!seconds ~min_iters
      | n -> fail (Printf.sprintf "--trace must be 0 or 1, not %d" n)
    in
    print_endline (Runner.to_json result)
  end
