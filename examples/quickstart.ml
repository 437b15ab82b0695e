(* Quickstart: the mixed-consistency programming model in one page.

   Three processes share memory with PRAM and causal reads, a lock, a
   barrier and an await; afterwards the recorded history is checked
   against the formal definitions.

   Run with: dune exec examples/quickstart.exe *)

module Engine = Mc_sim.Engine
module Runtime = Mc_dsm.Runtime
module Config = Mc_dsm.Config
module Op = Mc_history.Op

let () =
  let engine = Engine.create () in
  (* record = true keeps a history we can check afterwards *)
  let cfg = { (Config.default ~procs:3) with record = true } in
  let rt = Runtime.create engine cfg in

  (* process 0: a producer protected by a lock *)
  Runtime.spawn_process rt 0 (fun p ->
      Runtime.write_lock p "guard";
      Runtime.write p "config" 7;
      Runtime.write p "ready" 1;
      Runtime.write_unlock p "guard";
      Runtime.barrier p;
      Printf.printf "[p0] done at t=%.1fus\n" (Engine.now engine));

  (* process 1: waits for the flag, then reads causally - guaranteed to
     see every write that causally precedes the flag *)
  Runtime.spawn_process rt 1 (fun p ->
      Runtime.await p "ready" 1;
      let config = Runtime.read p ~label:Op.Causal "config" in
      Printf.printf "[p1] causal read of config after await: %d\n" config;
      Runtime.barrier p);

  (* process 2: PRAM reads are fast local reads with weaker guarantees -
     before any synchronization they may see stale values *)
  Runtime.spawn_process rt 2 (fun p ->
      let early = Runtime.read p ~label:Op.PRAM "config" in
      Printf.printf "[p2] early PRAM read of config: %d (may be stale)\n" early;
      Runtime.barrier p;
      let late = Runtime.read p ~label:Op.PRAM "config" in
      Printf.printf "[p2] PRAM read after the barrier: %d (guaranteed fresh)\n" late);

  let t_end = Runtime.run rt in
  Printf.printf "simulation finished at t=%.1fus, %d messages\n" t_end
    (Mc_net.Network.messages_sent (Runtime.network rt));

  (* check the recorded execution against the paper's definitions *)
  let h = Runtime.history rt in
  Printf.printf "history: %d operations, well-formed: %b\n"
    (Mc_history.History.length h)
    (Mc_history.History.is_well_formed h);
  Printf.printf "mixed consistent (Definition 4): %b\n"
    (Mc_consistency.Lattice.is_consistent h Mc_consistency.Lattice.Mixed);
  match Mc_consistency.Sequential.is_sequentially_consistent h with
  | Mc_consistency.Sequential.Consistent ->
    print_endline "sequentially consistent: yes (a witness serialization exists)"
  | Inconsistent -> print_endline "sequentially consistent: no"
  | Unknown -> print_endline "sequentially consistent: unknown (search bound)"
