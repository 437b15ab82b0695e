type update = {
  writer : int;
  useq : int;
  dep : int array;
  loc : Mc_history.Op.location;
  numeric : Mc_history.Op.value;
  tag : int;
  is_dec : bool;
}

type batch_item = {
  b_loc : Mc_history.Op.location;
  b_numeric : Mc_history.Op.value;
  b_tag : int;
  b_is_dec : bool;
  b_dep_delta : (int * int) list;
}

type batch = { first : update; rest : batch_item list }

let batch_length b = 1 + List.length b.rest

let batch_delta_entries b =
  List.fold_left (fun acc it -> acc + List.length it.b_dep_delta) 0 b.rest

(* The writer's own dep entry is never transmitted: it is [useq - 1] by
   construction, and useqs within a batch are consecutive. *)
let encode_batch = function
  | [] -> invalid_arg "Protocol.encode_batch: empty batch"
  | (first : update) :: rest ->
    let writer = first.writer in
    let prev = ref first in
    let items =
      List.map
        (fun (u : update) ->
          if u.writer <> writer then
            invalid_arg "Protocol.encode_batch: mixed writers";
          if u.useq <> !prev.useq + 1 then
            invalid_arg "Protocol.encode_batch: non-consecutive useq";
          let delta = ref [] in
          Array.iteri
            (fun j d -> if j <> writer && d <> !prev.dep.(j) then delta := (j, d) :: !delta)
            u.dep;
          prev := u;
          {
            b_loc = u.loc;
            b_numeric = u.numeric;
            b_tag = u.tag;
            b_is_dec = u.is_dec;
            b_dep_delta = List.rev !delta;
          })
        rest
    in
    { first; rest = items }

let decode_batch { first; rest } =
  let writer = first.writer in
  let prev_dep = ref first.dep and useq = ref first.useq in
  let decoded =
    List.map
      (fun it ->
        incr useq;
        let dep = Array.copy !prev_dep in
        List.iter (fun (j, d) -> dep.(j) <- d) it.b_dep_delta;
        dep.(writer) <- !useq - 1;
        prev_dep := dep;
        {
          writer;
          useq = !useq;
          dep;
          loc = it.b_loc;
          numeric = it.b_numeric;
          tag = it.b_tag;
          is_dec = it.b_is_dec;
        })
      rest
  in
  first :: decoded

(* Sharded (partially-replicated) routing: updates are scoped to one
   shard and carry per-shard ordering metadata instead of the global
   vector clock. [su_sseq] numbers the (writer, shard) stream; [su_sdep]
   is the shard-scoped delta clock — the per-writer applied counts of
   that shard at the writer when it issued the update, sparse, with the
   writer's own entry omitted (it is [su_sseq - 1] by construction). *)
type shard_update = {
  su_shard : int;
  su_writer : int;
  su_sseq : int;
  su_sdep : (int * int) list;
  su_loc : Mc_history.Op.location;
  su_numeric : Mc_history.Op.value;
  su_tag : int;
  su_is_dec : bool;
}

(* what a barrier message carries along the barrier tree: dense vector
   timestamps under full replication, sparse (writer, shard, count)
   stream entries under a placement *)
type barrier_clock = Vector of int array | Counts of (int * int * int) list

type msg =
  | Update of update
  | Update_batch of batch
  | Shard_update of shard_update
  | Fetch_request of { proc : int; loc : Mc_history.Op.location }
  | Fetch_reply of {
      loc : Mc_history.Op.location;
      numeric : Mc_history.Op.value;
      tag : int;
      clock : (int * int) list;
          (** the home's per-writer applied counts for the location's
              shard — the snapshot the fetched read is validated
              against *)
    }
  | Lock_request of { proc : int; lock : Mc_history.Op.lock_name; write : bool }
  | Lock_grant of {
      lock : Mc_history.Op.lock_name;
      write : bool;
      seq : int;
      dep : int array;
      invalid : (Mc_history.Op.location * int array) list;
      values : (Mc_history.Op.location * int * int) list;
    }
  | Unlock_msg of {
      proc : int;
      lock : Mc_history.Op.lock_name;
      write : bool;
      vc : int array;
      write_set : Mc_history.Op.location list;
      values : (Mc_history.Op.location * int * int) list;
    }
  | Unlock_ack of { lock : Mc_history.Op.lock_name; seq : int }
  | Flush_request of { proc : int }
  | Flush_ack of { proc : int }
  | Barrier_arrive of {
      proc : int;
      episode : int;
      members : int list;  (** empty means all processes *)
      clock : barrier_clock;
    }
  | Barrier_release of { episode : int; members : int list; clock : barrier_clock }

let kind = function
  | Update { is_dec = false; _ } -> "update"
  | Update { is_dec = true; _ } -> "dec_update"
  | Update_batch _ -> "update_batch"
  | Shard_update { su_is_dec = false; _ } -> "shard_update"
  | Shard_update { su_is_dec = true; _ } -> "shard_dec_update"
  | Fetch_request _ -> "fetch_request"
  | Fetch_reply _ -> "fetch_reply"
  | Lock_request _ -> "lock_request"
  | Lock_grant _ -> "lock_grant"
  | Unlock_msg _ -> "unlock"
  | Unlock_ack _ -> "unlock_ack"
  | Flush_request _ -> "flush_request"
  | Flush_ack _ -> "flush_ack"
  | Barrier_arrive _ -> "barrier_arrive"
  | Barrier_release _ -> "barrier_release"
