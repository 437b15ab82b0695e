type guarantee = Read_your_writes | Monotonic_reads

type t =
  | Linearizable
  | SC
  | Processor
  | Cache
  | Causal
  | Mixed
  | Group of int list
  | PRAM
  | Slow
  | Session of guarantee list

let norm_group g = List.sort_uniq compare g

let guarantee_to_string = function
  | Read_your_writes -> "ryw"
  | Monotonic_reads -> "mr"

let to_string = function
  | Linearizable -> "linearizable"
  | SC -> "sc"
  | Processor -> "processor"
  | Cache -> "cache"
  | Causal -> "causal"
  | Mixed -> "mixed"
  | Group g ->
    Printf.sprintf "group:%s" (String.concat "," (List.map string_of_int (norm_group g)))
  | PRAM -> "pram"
  | Slow -> "slow"
  | Session gs -> (
    match List.sort_uniq compare gs with
    | [] -> "session:none"
    | gs -> Printf.sprintf "session:%s" (String.concat "," (List.map guarantee_to_string gs)))

type failure = { read_id : int; label : Mc_history.Op.label; verdict : Read_rule.verdict }
