module History = Mc_history.History
module Op = Mc_history.Op

type t = {
  chains : int;
  chain_of : int array; (* op id -> chain index *)
  rank_of : int array; (* op id -> 1-based rank within its chain *)
  clocks : int array array;
      (* node -> clock; entry c = highest rank of a chain-c operation that
         happens-before-or-equals the node *)
}

(* Barrier episode key, matching History.compute_barrier_order: a plain
   barrier spans all processes ([]), a group barrier its member set. *)
let episode_key (o : Op.t) =
  match o.kind with
  | Op.Barrier k -> Some ([], k)
  | Op.Barrier_group { episode; members } ->
    Some (List.sort_uniq compare members, episode)
  | _ -> None

(* Lock epochs in manager grant order, as in History.epochs_of_lock: each
   write critical section is its own epoch, maximal runs of read
   lock/unlock operations form shared epochs. *)
type epoch = Write_epoch of int list | Read_epoch of int list

let epochs_of_lock (ops : Op.t array) sorted_ids =
  let finish current acc =
    match current with [] -> acc | l -> Read_epoch (List.rev l) :: acc
  in
  let rec walk acc current = function
    | [] -> List.rev (finish current acc)
    | id :: rest -> (
      let o = ops.(id) in
      match o.Op.kind with
      | Op.Write_lock _ -> (
        let acc = finish current acc in
        match rest with
        | u :: rest'
          when ops.(u).Op.proc = o.Op.proc
               && (match ops.(u).Op.kind with
                  | Op.Write_unlock _ -> true
                  | _ -> false) ->
          walk (Write_epoch [ id; u ] :: acc) [] rest'
        | _ -> walk (Write_epoch [ id ] :: acc) [] rest)
      | Op.Read_lock _ | Op.Read_unlock _ -> walk acc (id :: current) rest
      | _ -> walk acc current rest)
  in
  walk [] [] sorted_ids

let epoch_ops = function Write_epoch l -> l | Read_epoch l -> l

let of_history h =
  let n = History.length h in
  let ops = History.ops h in
  let procs = History.procs h in
  (* ---- program-order chain decomposition, per process ---- *)
  let chain_of = Array.make n (-1) in
  let rank_of = Array.make n 0 in
  let by_proc = Array.make procs [] in
  Array.iter (fun (o : Op.t) -> by_proc.(o.proc) <- o.id :: by_proc.(o.proc)) ops;
  let by_proc =
    Array.map
      (fun ids ->
        List.sort
          (fun a b -> compare ops.(a).Op.inv_seq ops.(b).Op.inv_seq)
          ids)
      by_proc
  in
  let n_chains = ref 0 in
  Array.iter
    (fun ids ->
      (* greedy first-fit: an op joins the first chain whose last response
         precedes its invocation, so chain members are totally ordered *)
      let chains = ref [] in
      List.iter
        (fun id ->
          let o = ops.(id) in
          match
            List.find_opt (fun (_, last, _) -> !last < o.Op.inv_seq) !chains
          with
          | Some (c, last, count) ->
            last := o.Op.resp_seq;
            incr count;
            chain_of.(id) <- c;
            rank_of.(id) <- !count
          | None ->
            let c = !n_chains in
            incr n_chains;
            chains := !chains @ [ (c, ref o.Op.resp_seq, ref 1) ];
            chain_of.(id) <- c;
            rank_of.(id) <- 1)
        ids)
    by_proc;
  let chains = max 1 !n_chains in
  (* ---- barrier episodes: two virtual nodes each ---- *)
  let ep_index = Hashtbl.create 8 in
  let ep_of_op = Hashtbl.create 8 in
  let n_eps = ref 0 in
  Array.iter
    (fun (o : Op.t) ->
      match episode_key o with
      | Some key ->
        let e =
          match Hashtbl.find_opt ep_index key with
          | Some e -> e
          | None ->
            let e = !n_eps in
            incr n_eps;
            Hashtbl.add ep_index key e;
            e
        in
        Hashtbl.add ep_of_op o.id e
      | None -> ())
    ops;
  let nodes = n + (2 * !n_eps) in
  let e_in e = n + (2 * e) in
  let e_out e = n + (2 * e) + 1 in
  let succ = Array.make nodes [] in
  let indeg = Array.make nodes 0 in
  let add_edge a b =
    succ.(a) <- b :: succ.(a);
    indeg.(b) <- indeg.(b) + 1
  in
  (* ---- program order: per-process event sweep ---- *)
  Array.iter
    (fun ids ->
      let events =
        List.concat_map
          (fun id ->
            [ (ops.(id).Op.inv_seq, true, id); (ops.(id).Op.resp_seq, false, id) ])
          ids
      in
      let events =
        List.sort (fun (a, _, _) (b, _, _) -> compare a b) events
      in
      (* chain id -> most recently completed op of that chain *)
      let last_done : (int, int) Hashtbl.t = Hashtbl.create 4 in
      List.iter
        (fun (_, is_inv, id) ->
          if is_inv then begin
            (* covering edges: the last completed op of every chain of
               this process dominates all earlier completed ops *)
            Hashtbl.iter
              (fun _c src ->
                add_edge src id;
                (* an op after a barrier is after the whole episode *)
                (match Hashtbl.find_opt ep_of_op src with
                | Some e -> add_edge (e_out e) id
                | None -> ());
                match Hashtbl.find_opt ep_of_op id with
                | Some e -> add_edge src (e_in e)
                | None -> ())
              last_done;
            match Hashtbl.find_opt ep_of_op id with
            | Some e -> add_edge (e_in e) id
            | None -> ()
          end
          else begin
            Hashtbl.replace last_done chain_of.(id) id;
            match Hashtbl.find_opt ep_of_op id with
            | Some e -> add_edge id (e_out e)
            | None -> ()
          end)
        events)
    by_proc;
  (* ---- reads-from (also covers the await order) ---- *)
  Array.iter
    (fun (o : Op.t) ->
      match Op.reads_value o with
      | Some (loc, v) ->
        List.iter
          (fun w -> if w <> o.id then add_edge w o.id)
          (History.writers_of h loc v)
      | None -> ())
    ops;
  (* ---- lock order: chain adjacent epochs ---- *)
  let by_lock = Hashtbl.create 8 in
  Array.iter
    (fun (o : Op.t) ->
      match Op.lock_of o with
      | Some l ->
        let prev = Option.value ~default:[] (Hashtbl.find_opt by_lock l) in
        Hashtbl.replace by_lock l (o.id :: prev)
      | None -> ())
    ops;
  Hashtbl.iter
    (fun _lock ids ->
      let sorted =
        List.sort
          (fun a b -> compare ops.(a).Op.sync_seq ops.(b).Op.sync_seq)
          ids
      in
      let epochs = Array.of_list (epochs_of_lock ops sorted) in
      for e = 0 to Array.length epochs - 2 do
        (* adjacent epochs never are both read epochs (read runs are
           maximal), so this all-pairs step is linear overall *)
        List.iter
          (fun a ->
            List.iter (fun b -> add_edge a b) (epoch_ops epochs.(e + 1)))
          (epoch_ops epochs.(e))
      done;
      Array.iter
        (function
          | Write_epoch [ a; b ] -> add_edge a b
          | Write_epoch _ -> ()
          | Read_epoch l ->
            let open_locks = Hashtbl.create 4 in
            List.iter
              (fun id ->
                match ops.(id).Op.kind with
                | Op.Read_lock _ -> Hashtbl.replace open_locks ops.(id).Op.proc id
                | Op.Read_unlock _ -> (
                  match Hashtbl.find_opt open_locks ops.(id).Op.proc with
                  | Some lid ->
                    add_edge lid id;
                    Hashtbl.remove open_locks ops.(id).Op.proc
                  | None -> ())
                | _ -> ())
              l)
        epochs)
    by_lock;
  (* ---- Kahn propagation of clocks ---- *)
  let clocks = Array.init nodes (fun _ -> Array.make chains 0) in
  let queue = Queue.create () in
  for v = 0 to nodes - 1 do
    if indeg.(v) = 0 then Queue.add v queue
  done;
  let processed = ref 0 in
  while not (Queue.is_empty queue) do
    let v = Queue.pop queue in
    incr processed;
    if v < n then begin
      let c = chain_of.(v) in
      if clocks.(v).(c) < rank_of.(v) then clocks.(v).(c) <- rank_of.(v)
    end;
    List.iter
      (fun w ->
        let cv = clocks.(v) and cw = clocks.(w) in
        for k = 0 to chains - 1 do
          if cw.(k) < cv.(k) then cw.(k) <- cv.(k)
        done;
        indeg.(w) <- indeg.(w) - 1;
        if indeg.(w) = 0 then Queue.add w queue)
      succ.(v)
  done;
  if !processed <> nodes then
    invalid_arg "Hb.of_history: cyclic causality relation";
  { chains; chain_of; rank_of; clocks }

let hb t i j = i <> j && t.clocks.(j).(t.chain_of.(i)) >= t.rank_of.(i)
let related t i j = hb t i j || hb t j i
let concurrent t i j = i <> j && not (related t i j)
let chains t = t.chains
