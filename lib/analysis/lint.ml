module History = Mc_history.History
module Op = Mc_history.Op

let lint h =
  let ops = History.ops h in
  let procs = History.procs h in
  let walk = History.walk h in
  let diags = ref [] in
  let add d = diags := d :: !diags in
  (* ---- lock discipline, read off the walk: L001, L002, L003, L006 ---- *)
  let mode_name = function History.Mode_read -> "read" | History.Mode_write -> "write" in
  Array.iter
    (fun (o : Op.t) ->
      let p = o.proc and held = walk.History.held.(o.id) in
      let innermost l = List.find_opt (fun (a : History.acquisition) -> a.lock = l) held in
      let release l m =
        match innermost l with
        | None ->
          add
            (Diag.make ~rule:"L001" ~severity:Diag.Error ~op_id:o.id ~proc:p ~loc:l
               (Printf.sprintf "process %d unlocks %s without holding it" p l))
        | Some a when a.mode <> m ->
          add
            (Diag.make ~rule:"L001" ~severity:Diag.Error ~op_id:o.id ~proc:p ~loc:l
               (Printf.sprintf
                  "process %d releases %s with a %s unlock but holds it in %s mode" p l
                  (mode_name m) (mode_name a.mode)))
        | Some _ -> ()
      in
      match o.kind with
      | Op.Read_lock l | Op.Write_lock l ->
        if innermost l <> None then
          add
            (Diag.make ~rule:"L002" ~severity:Diag.Warning ~op_id:o.id ~proc:p ~loc:l
               (Printf.sprintf "process %d acquires lock %s while already holding it" p l))
      | Op.Read_unlock l -> release l History.Mode_read
      | Op.Write_unlock l -> release l History.Mode_write
      | _ ->
        if
          Op.is_write_like o && held <> []
          && List.for_all (fun (a : History.acquisition) -> a.mode = Mode_read) held
        then
          add
            (Diag.make ~rule:"L006" ~severity:Diag.Error ~op_id:o.id ~proc:p
               ?loc:(Option.map fst (Op.writes_value o))
               (Printf.sprintf
                  "write by process %d under read lock(s) %s only: a read lock cannot \
                   protect a write"
                  p
                  (String.concat "," (List.map (fun (a : History.acquisition) -> a.lock) held)))))
    ops;
  Array.iteri
    (fun p ->
      List.iter (fun { History.lock = l; acquired_by; _ } ->
          add
            (Diag.make ~rule:"L003" ~severity:Diag.Warning ~op_id:acquired_by ~proc:p ~loc:l
               (Printf.sprintf
                  "lock %s acquired by process %d (op %d) is still held when its history \
                   ends"
                  l p acquired_by))))
    walk.held_at_end;
  (* ---- barrier episode matching: L004 ---- *)
  let episodes : (int list * int, (int * int) list) Hashtbl.t =
    Hashtbl.create 8
  in
  Array.iter
    (fun (o : Op.t) ->
      match Op.barrier_episode o with
      | Some key ->
        Hashtbl.replace episodes key
          ((o.proc, o.id)
          :: Option.value ~default:[] (Hashtbl.find_opt episodes key))
      | None -> ())
    ops;
  Hashtbl.iter
    (fun (members, episode) participants ->
      let expected =
        match members with
        | [] -> List.init procs Fun.id
        | ms -> ms
      in
      let name =
        match members with
        | [] -> Printf.sprintf "barrier episode %d" episode
        | ms ->
          Printf.sprintf "group barrier episode %d {%s}" episode
            (String.concat "," (List.map string_of_int ms))
      in
      List.iter
        (fun m ->
          match List.filter (fun (p, _) -> p = m) participants with
          | [] ->
            add
              (Diag.make ~rule:"L004" ~severity:Diag.Error ~proc:m
                 (Printf.sprintf "process %d never reaches %s" m name))
          | [ _ ] -> ()
          | (_, id) :: _ as many ->
            add
              (Diag.make ~rule:"L004" ~severity:Diag.Error ~op_id:id ~proc:m
                 (Printf.sprintf "process %d executes %s %d times" m name
                    (List.length many))))
        expected;
      List.iter
        (fun (p, id) ->
          if not (List.mem p expected) then
            add
              (Diag.make ~rule:"L004" ~severity:Diag.Error ~op_id:id ~proc:p
                 (Printf.sprintf "process %d participates in %s without being \
                                  a member"
                    p name)))
        participants)
    episodes;
  (* ---- awaits that can never fire: L005 ---- *)
  Array.iter
    (fun (o : Op.t) ->
      match o.kind with
      | Op.Await { loc; value } ->
        if value <> History.initial_value h loc && History.writers_of h loc value = []
        then
          add
            (Diag.make ~rule:"L005" ~severity:Diag.Warning ~op_id:o.id
               ~proc:o.proc ~loc
               (Printf.sprintf
                  "await on %s=%d can never fire: no operation writes that \
                   value"
                  loc value))
      | _ -> ())
    ops;
  List.sort Diag.compare !diags
