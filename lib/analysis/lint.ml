module History = Mc_history.History
module Op = Mc_history.Op

type mode = R | W

let lint h =
  let ops = History.ops h in
  let procs = History.procs h in
  let diags = ref [] in
  let add d = diags := d :: !diags in
  let by_proc = Array.make procs [] in
  Array.iter (fun (o : Op.t) -> by_proc.(o.proc) <- o :: by_proc.(o.proc)) ops;
  let by_proc =
    Array.map
      (fun l ->
        List.sort (fun (a : Op.t) (b : Op.t) -> compare a.inv_seq b.inv_seq) l)
      by_proc
  in
  (* ---- per-process lock-discipline scan: L001, L002, L003, L006 ---- *)
  Array.iteri
    (fun p ops_of_p ->
      (* lock -> stack of (mode, acquiring op id) *)
      let held : (Op.lock_name, (mode * int) list) Hashtbl.t =
        Hashtbl.create 4
      in
      let stack l = Option.value ~default:[] (Hashtbl.find_opt held l) in
      let acquire (o : Op.t) l m =
        (if stack l <> [] then
           add
             (Diag.make ~rule:"L002" ~severity:Diag.Warning ~op_id:o.id ~proc:p
                ~loc:l
                (Printf.sprintf
                   "process %d acquires lock %s while already holding it" p l)));
        Hashtbl.replace held l ((m, o.id) :: stack l)
      in
      let release (o : Op.t) l m =
        match stack l with
        | [] ->
          add
            (Diag.make ~rule:"L001" ~severity:Diag.Error ~op_id:o.id ~proc:p
               ~loc:l
               (Printf.sprintf "process %d unlocks %s without holding it" p l))
        | (m', _) :: rest ->
          if m' <> m then
            add
              (Diag.make ~rule:"L001" ~severity:Diag.Error ~op_id:o.id ~proc:p
                 ~loc:l
                 (Printf.sprintf
                    "process %d releases %s with a %s unlock but holds it in \
                     %s mode"
                    p l
                    (if m = W then "write" else "read")
                    (if m' = W then "write" else "read")));
          if rest = [] then Hashtbl.remove held l
          else Hashtbl.replace held l rest
      in
      List.iter
        (fun (o : Op.t) ->
          match o.kind with
          | Op.Read_lock l -> acquire o l R
          | Op.Write_lock l -> acquire o l W
          | Op.Read_unlock l -> release o l R
          | Op.Write_unlock l -> release o l W
          | _ ->
            if Op.is_write_like o then begin
              let held_now =
                Hashtbl.fold (fun l s acc -> (l, List.hd s) :: acc) held []
              in
              let only_read =
                held_now <> []
                && List.for_all (fun (_, (m, _)) -> m = R) held_now
              in
              if only_read then
                let locks =
                  String.concat "," (List.map fst held_now)
                in
                add
                  (Diag.make ~rule:"L006" ~severity:Diag.Error ~op_id:o.id
                     ~proc:p
                     ?loc:
                       (match Op.writes_value o with
                       | Some (loc, _) -> Some loc
                       | None -> None)
                     (Printf.sprintf
                        "write by process %d under read lock(s) %s only: a \
                         read lock cannot protect a write"
                        p locks))
            end)
        ops_of_p;
      Hashtbl.iter
        (fun l s ->
          List.iter
            (fun (_, acq_id) ->
              add
                (Diag.make ~rule:"L003" ~severity:Diag.Warning ~op_id:acq_id
                   ~proc:p ~loc:l
                   (Printf.sprintf
                      "lock %s acquired by process %d (op %d) is still held \
                       when its history ends"
                      l p acq_id)))
            s)
        held)
    by_proc;
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
