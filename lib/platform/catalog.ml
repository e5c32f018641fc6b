type cpu = { speed : float; cpu_cost : float }
type nic = { bandwidth : float; nic_cost : float }
type config = { cpu : cpu; nic : nic }

type t = {
  chassis_cost : float;
  cpus : cpu array;
  nics : nic array;
  configs : config list;
}

let check_sorted name capacity cost options =
  let n = Array.length options in
  if n = 0 then invalid_arg ("Catalog.make: empty " ^ name ^ " options");
  for i = 1 to n - 1 do
    if capacity options.(i) <= capacity options.(i - 1) then
      invalid_arg ("Catalog.make: " ^ name ^ " capacities must increase");
    if cost options.(i) <= cost options.(i - 1) then
      invalid_arg ("Catalog.make: " ^ name ^ " costs must increase")
  done

let config_cost_of chassis_cost config =
  chassis_cost +. config.cpu.cpu_cost +. config.nic.nic_cost

(* [configs]: every CPU x NIC combination, sorted once, here: cost, then
   speed. *)
let build chassis_cost cpus nics =
  let all = ref [] in
  Array.iter
    (fun cpu -> Array.iter (fun nic -> all := { cpu; nic } :: !all) nics)
    cpus;
  let cost = config_cost_of chassis_cost in
  let configs =
    List.sort
      (fun a b ->
        let c = compare (cost a) (cost b) in
        if c <> 0 then c else compare a.cpu.speed b.cpu.speed)
      !all
  in
  { chassis_cost; cpus; nics; configs }

let make ~chassis_cost ~cpus ~nics =
  if chassis_cost < 0.0 then invalid_arg "Catalog.make: negative chassis cost";
  check_sorted "CPU" (fun c -> c.speed) (fun c -> c.cpu_cost) cpus;
  check_sorted "NIC" (fun c -> c.bandwidth) (fun c -> c.nic_cost) nics;
  build chassis_cost (Array.copy cpus) (Array.copy nics)

(* Paper Table 1.  Speeds: GHz x 1000 -> Mops/s.  Bandwidths:
   Gbps x 125 -> MB/s.  Costs are the upgrade price over the $7,548
   chassis. *)
let dell_2008 =
  make ~chassis_cost:7548.0
    ~cpus:
      [|
        { speed = 11720.0; cpu_cost = 0.0 };
        { speed = 19200.0; cpu_cost = 1550.0 };
        { speed = 25600.0; cpu_cost = 2399.0 };
        { speed = 38400.0; cpu_cost = 3949.0 };
        { speed = 46880.0; cpu_cost = 5299.0 };
      |]
    ~nics:
      [|
        { bandwidth = 125.0; nic_cost = 0.0 };
        { bandwidth = 250.0; nic_cost = 399.0 };
        { bandwidth = 500.0; nic_cost = 1197.0 };
        { bandwidth = 1250.0; nic_cost = 2800.0 };
        { bandwidth = 2500.0; nic_cost = 5999.0 };
      |]

let homogeneous t ~cpu_index ~nic_index =
  if cpu_index < 0 || cpu_index >= Array.length t.cpus then
    invalid_arg "Catalog.homogeneous: cpu_index out of range";
  if nic_index < 0 || nic_index >= Array.length t.nics then
    invalid_arg "Catalog.homogeneous: nic_index out of range";
  build t.chassis_cost [| t.cpus.(cpu_index) |] [| t.nics.(nic_index) |]

let is_homogeneous t = Array.length t.cpus = 1 && Array.length t.nics = 1

let config_cost t config = config_cost_of t.chassis_cost config

let best t =
  {
    cpu = t.cpus.(Array.length t.cpus - 1);
    nic = t.nics.(Array.length t.nics - 1);
  }

let cheapest t = { cpu = t.cpus.(0); nic = t.nics.(0) }

let configs t = t.configs

let cheapest_satisfying t ~speed ~bandwidth =
  List.find_opt
    (fun c -> c.cpu.speed >= speed && c.nic.bandwidth >= bandwidth)
    t.configs

let label c = Printf.sprintf "cpu%.0f/nic%.0f" c.cpu.speed c.nic.bandwidth

let pp_config ppf c =
  Format.fprintf ppf "cpu %.0f Mops/s + nic %.0f MB/s" c.cpu.speed
    c.nic.bandwidth

let pp ppf t =
  Format.fprintf ppf "@[<v>chassis $%.0f@ " t.chassis_cost;
  Array.iter
    (fun c -> Format.fprintf ppf "cpu %.0f Mops/s  +$%.0f@ " c.speed c.cpu_cost)
    t.cpus;
  Array.iter
    (fun n ->
      Format.fprintf ppf "nic %.0f MB/s  +$%.0f@ " n.bandwidth n.nic_cost)
    t.nics;
  Format.fprintf ppf "@]"
