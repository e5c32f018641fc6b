module App = Insp_tree.App
module Graph = Insp_tree.Graph
module Catalog = Insp_platform.Catalog
module Platform = Insp_platform.Platform
module Servers = Insp_platform.Servers

type t = {
  milp : Milp.t;
  n_operators : int;
  max_procs : int;
  x_index : int -> int -> int;
  y_index : int -> int;
}

(* Variable layout:
     x_{i,u} : n*u_max                     binaries
     y_u     : u_max                       binaries
     a_{i,u} : n*u_max  (out-crossing)     continuous in [0,1]
     b_{i,u} : n*u_max  (in-crossing)      continuous in [0,1]
     n_{u,k} : u_max*k_used                continuous in [0,1]
     d_{u,k,l} : one per (u, k, holder l)  continuous in [0,1]            *)
let build app platform ~max_procs =
  let catalog = platform.Platform.catalog in
  if not (Catalog.is_homogeneous catalog) then
    invalid_arg "Ilp_model.build: platform must be homogeneous (CONSTR-HOM)";
  let config = Catalog.cheapest catalog in
  let speed = config.Catalog.cpu.Catalog.speed in
  let nic_bw = config.Catalog.nic.Catalog.bandwidth in
  let servers = platform.Platform.servers in
  let g = Graph.of_app app in
  let n = App.n_operators app in
  let u_max = max_procs in
  let rho = App.rho app in
  let used_objects = Graph.distinct_objects g (List.init n Fun.id) in
  let k_used = List.length used_objects in
  let obj_pos k =
    let rec find idx = function
      | [] -> invalid_arg "Ilp_model: unknown object"
      | k' :: rest -> if k' = k then idx else find (idx + 1) rest
    in
    find 0 used_objects
  in
  let holders k = Servers.providers servers k in
  let x_index i u = (i * u_max) + u in
  let y_index u = (n * u_max) + u in
  let a_index i u = ((n + 1) * u_max) + (i * u_max) + u in
  let b_index i u = (((2 * n) + 1) * u_max) + (i * u_max) + u in
  let n_index u k = (((3 * n) + 1) * u_max) + (u * k_used) + obj_pos k in
  let d_base = (((3 * n) + 1) * u_max) + (u_max * k_used) in
  (* Download variables exist only for servers actually holding the
     object. *)
  let d_table = Hashtbl.create 64 in
  let n_vars = ref d_base in
  for u = 0 to u_max - 1 do
    List.iter
      (fun k ->
        List.iter
          (fun l ->
            Hashtbl.replace d_table (u, k, l) !n_vars;
            incr n_vars)
          (holders k))
      used_objects
  done;
  let n_vars = !n_vars in
  let d_index u k l = Hashtbl.find d_table (u, k, l) in
  let constraints = ref [] in
  let add coeffs relation bound =
    constraints := { Simplex.coeffs; relation; bound } :: !constraints
  in
  let row () = Array.make n_vars 0.0 in
  (* Every operator on exactly one processor. *)
  for i = 0 to n - 1 do
    let r = row () in
    for u = 0 to u_max - 1 do
      r.(x_index i u) <- 1.0
    done;
    add r Simplex.Eq 1.0
  done;
  (* Binaries and indicator variables live in [0,1]. *)
  for v = 0 to d_base - 1 do
    let r = row () in
    r.(v) <- 1.0;
    add r Simplex.Le 1.0
  done;
  (* Constraint (1): compute capacity. *)
  for u = 0 to u_max - 1 do
    let r = row () in
    for i = 0 to n - 1 do
      r.(x_index i u) <- rho *. App.work app i
    done;
    r.(y_index u) <- -.speed;
    add r Simplex.Le 0.0
  done;
  (* Crossing-indicator definitions for every non-root operator: its
     one consumer is its parent. *)
  for i = 0 to n - 1 do
    for k = 0 to Graph.n_consumers g i - 1 do
      let p = Graph.consumer g i k in
      for u = 0 to u_max - 1 do
        (* a_{i,u} >= x_{i,u} - x_{p,u} *)
        let r = row () in
        r.(x_index i u) <- 1.0;
        r.(x_index p u) <- -1.0;
        r.(a_index i u) <- -1.0;
        add r Simplex.Le 0.0;
        (* b_{i,u} >= x_{p,u} - x_{i,u} *)
        let r = row () in
        r.(x_index p u) <- 1.0;
        r.(x_index i u) <- -1.0;
        r.(b_index i u) <- -1.0;
        add r Simplex.Le 0.0
      done
    done
  done;
  (* n_{u,k} >= x_{i,u} for every al-operator i needing k. *)
  for i = 0 to n - 1 do
    List.iter
      (fun k ->
        for u = 0 to u_max - 1 do
          let r = row () in
          r.(x_index i u) <- 1.0;
          r.(n_index u k) <- -1.0;
          add r Simplex.Le 0.0
        done)
      (Graph.distinct_objects g [ i ])
  done;
  (* Download split: sum_l d_{u,k,l} = n_{u,k}. *)
  for u = 0 to u_max - 1 do
    List.iter
      (fun k ->
        let r = row () in
        List.iter (fun l -> r.(d_index u k l) <- 1.0) (holders k);
        r.(n_index u k) <- -1.0;
        add r Simplex.Eq 0.0)
      used_objects
  done;
  (* Constraint (2): NIC capacity. *)
  for u = 0 to u_max - 1 do
    let r = row () in
    List.iter
      (fun k -> r.(n_index u k) <- App.download_rate app k)
      used_objects;
    for i = 0 to n - 1 do
      if Graph.n_consumers g i > 0 then begin
        let w = rho *. App.output_size app i in
        r.(a_index i u) <- w;
        r.(b_index i u) <- w
      end
    done;
    r.(y_index u) <- -.nic_bw;
    add r Simplex.Le 0.0
  done;
  (* Constraints (3) and (4): server card and server-processor links. *)
  for l = 0 to Servers.n_servers servers - 1 do
    let card = row () in
    for u = 0 to u_max - 1 do
      let link = row () in
      List.iter
        (fun k ->
          if Servers.holds servers l k then begin
            let rate = App.download_rate app k in
            card.(d_index u k l) <- rate;
            link.(d_index u k l) <- rate
          end)
        used_objects;
      add link Simplex.Le platform.Platform.server_link
    done;
    add card Simplex.Le (Servers.card servers l)
  done;
  (* Symmetry breaking: processors are opened in order. *)
  for u = 0 to u_max - 2 do
    let r = row () in
    r.(y_index u) <- -1.0;
    r.(y_index (u + 1)) <- 1.0;
    add r Simplex.Le 0.0
  done;
  let objective = Array.make n_vars 0.0 in
  for u = 0 to u_max - 1 do
    objective.(y_index u) <- 1.0
  done;
  let integer_vars = List.init ((n + 1) * u_max) (fun v -> v) in
  {
    milp =
      {
        Milp.problem =
          {
            Simplex.objective;
            constraints = List.rev !constraints;
            maximize = false;
          };
        integer_vars;
      };
    n_operators = n;
    max_procs = u_max;
    x_index;
    y_index;
  }

let lower_bound t = Milp.relaxation_bound t.milp
