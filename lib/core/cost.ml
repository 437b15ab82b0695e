let op_cost = 0.1
let send_cost = 2.0
let byte_cost = 0.02
let update_bytes = 64
let control_bytes = 32
let latency () = Mc_net.Latency.uniform (Mc_util.Rng.make 0xC0FFEE) ~lo:30. ~hi:70.

let network engine ~nodes ?latency:l () =
  let latency = match l with Some l -> l | None -> latency () in
  Mc_net.Network.create engine ~nodes ~latency ~send_cost ~byte_cost ()
