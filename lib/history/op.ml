type location = string
type lock_name = string
type value = int
type label = PRAM | Causal | Group of int list

type kind =
  | Read of { loc : location; label : label; value : value }
  | Write of { loc : location; value : value }
  | Decrement of { loc : location; amount : value; observed : value }
  | Read_lock of lock_name
  | Read_unlock of lock_name
  | Write_lock of lock_name
  | Write_unlock of lock_name
  | Barrier of int
  | Barrier_group of { episode : int; members : int list }
  | Await of { loc : location; value : value }

type t = {
  id : int;
  proc : int;
  kind : kind;
  inv_seq : int;
  resp_seq : int;
  sync_seq : int;
}

let writes_value op =
  match op.kind with
  | Write { loc; value } -> Some (loc, value)
  | Decrement { loc; amount; observed } -> Some (loc, observed - amount)
  | Read _ | Read_lock _ | Read_unlock _ | Write_lock _ | Write_unlock _
  | Barrier _ | Barrier_group _ | Await _ ->
    None

let reads_value op =
  match op.kind with
  | Read { loc; value; _ } -> Some (loc, value)
  | Await { loc; value } -> Some (loc, value)
  | Decrement { loc; observed; _ } -> Some (loc, observed)
  | Write _ | Read_lock _ | Read_unlock _ | Write_lock _ | Write_unlock _
  | Barrier _ | Barrier_group _ ->
    None

let is_memory_read op = match op.kind with Read _ -> true | _ -> false

let is_write_like op =
  match op.kind with Write _ | Decrement _ -> true | _ -> false

let is_sync op =
  match op.kind with
  | Read_lock _ | Read_unlock _ | Write_lock _ | Write_unlock _ | Barrier _
  | Barrier_group _ | Await _ ->
    true
  | Read _ | Write _ | Decrement _ -> false

let lock_of op =
  match op.kind with
  | Read_lock l | Read_unlock l | Write_lock l | Write_unlock l -> Some l
  | Read _ | Write _ | Decrement _ | Barrier _ | Barrier_group _ | Await _ -> None

let barrier_episode op =
  match op.kind with
  | Barrier k -> Some ([], k)
  | Barrier_group { episode; members } -> Some (List.sort_uniq compare members, episode)
  | Read _ | Write _ | Decrement _ | Read_lock _ | Read_unlock _ | Write_lock _
  | Write_unlock _ | Await _ ->
    None

let pp_kind fmt = function
  | Read { loc; label; value } ->
    Format.fprintf fmt "r%s(%s)%d"
      (match label with
      | PRAM -> "p"
      | Causal -> "c"
      | Group members ->
        "g{" ^ String.concat "," (List.map string_of_int members) ^ "}")
      loc value
  | Write { loc; value } -> Format.fprintf fmt "w(%s)%d" loc value
  | Decrement { loc; amount; observed } ->
    Format.fprintf fmt "dec(%s)%d[%d->%d]" loc amount observed (observed - amount)
  | Read_lock l -> Format.fprintf fmt "rl(%s)" l
  | Read_unlock l -> Format.fprintf fmt "ru(%s)" l
  | Write_lock l -> Format.fprintf fmt "wl(%s)" l
  | Write_unlock l -> Format.fprintf fmt "wu(%s)" l
  | Barrier k -> Format.fprintf fmt "bar(%d)" k
  | Barrier_group { episode; members } ->
    Format.fprintf fmt "bar(%d|{%s})" episode
      (String.concat "," (List.map string_of_int members))
  | Await { loc; value } -> Format.fprintf fmt "await(%s=%d)" loc value

let pp fmt op = Format.fprintf fmt "p%d:%a#%d" op.proc pp_kind op.kind op.id
let to_string op = Format.asprintf "%a" pp op
