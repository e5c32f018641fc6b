(* Shared fixtures and generators for the test suites. *)

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count ~name gen prop)

(* Operator [i]'s children, row [i] of the tree's [child] table. *)
let children t i =
  let s = t.Insp.Optree.child_start in
  List.init (s.(i + 1) - s.(i)) (fun k -> t.Insp.Optree.child.(s.(i) + k))

(* A node's producer and leaf rows of an operator-graph view, as lists
   in slot order. *)
let producers g i =
  List.init (Insp.Graph.n_producers g i) (Insp.Graph.producer g i)

let leaves g i = List.init (Insp.Graph.n_leaves g i) (Insp.Graph.leaf g i)

(* A tiny hand-built application used by many mapping tests:

     n0
     +- n1 [o0, o1]
     +- n2
        +- n3 [o0]
        +- leaf o2

   sizes: o0 = 10 MB, o1 = 20 MB, o2 = 40 MB; freq 0.5/s; alpha = 1;
   no base work, factor 1.  So (bottom-up):
     w3 = 10,  d3 = 10
     w1 = 30,  d1 = 30
     w2 = 50,  d2 = 50   (inputs: n3 output 10 + o2 40)
     w0 = 80,  d0 = 80 *)
let tiny_app () =
  let open Insp.Optree in
  let spec = Op (Op (Obj 0, Obj 1), Op (Op1 (Obj 0), Obj 2)) in
  let tree = of_spec ~n_object_types:3 spec in
  let objects =
    Insp.Objects.uniform_freq ~sizes:[| 10.0; 20.0; 40.0 |] ~freq:0.5
  in
  Insp.App.make ~tree ~objects ~alpha:1.0 ()

(* A platform with two servers: S0 holds {o0, o1}, S1 holds {o0, o2}. *)
let tiny_platform () =
  let holds = [| [| true; true; false |]; [| true; false; true |] |] in
  let servers = Insp.Servers.make ~cards:[| 10000.0; 10000.0 |] ~holds in
  Insp.Platform.make ~catalog:Insp.Catalog.dell_2008 ~servers ()

(* Paper-style random instance. *)
let instance ?(n = 30) ?(alpha = 0.9) ?(sizes = Insp.Config.Small) ~seed () =
  Insp.Instance.generate (Insp.Config.make ~n_operators:n ~alpha ~sizes ~seed ())

(* QCheck generator of small paper-style instance *parameters*: keeping
   the raw (seed, n-index, alpha-index) triple as the test input
   preserves printing and shrinking; build the instance in the property
   with [instance_of_case]. *)
let instance_case =
  QCheck.(triple (int_range 0 2000) (int_range 0 3) (int_range 0 3))

let instance_of_case (seed, n_idx, a_idx) =
  let n = [| 5; 10; 20; 35 |].(n_idx) in
  let alpha = [| 0.7; 0.9; 1.2; 1.5 |].(a_idx) in
  instance ~n ~alpha ~seed ()

let small_instance_gen =
  QCheck.map instance_of_case instance_case

let check_feasible inst alloc =
  Insp.Check.check inst.Insp.Instance.app inst.Insp.Instance.platform alloc

(* A catalog's CPU and NIC options, slowest / narrowest first, read back
   from its configurations. *)
let catalog_options c =
  let configs = Insp.Catalog.configs c in
  let options cmp field =
    Array.of_list (List.sort_uniq cmp (List.map field configs))
  in
  ( options
      (fun a b -> Float.compare a.Insp.Catalog.speed b.Insp.Catalog.speed)
      (fun x -> x.Insp.Catalog.cpu),
    options
      (fun a b ->
        Float.compare a.Insp.Catalog.bandwidth b.Insp.Catalog.bandwidth)
      (fun x -> x.Insp.Catalog.nic) )

(* The Table 1 configuration with the given CPU and NIC option indices
   (default: the best). *)
let cfg ?(cpu = 4) ?(nic = 4) () =
  let cpus, nics = catalog_options Insp.Catalog.dell_2008 in
  { Insp.Catalog.cpu = cpus.(cpu); nic = nics.(nic) }

(* Operators the allocation assigns to some processor. *)
let n_assigned alloc =
  Array.fold_left (fun n h -> if h >= 0 then n + 1 else n) 0
    (Insp.Alloc.hosts alloc)

let float_eq ?(eps = 1e-9) a b =
  Float.abs (a -. b) <= eps *. Float.max 1.0 (Float.max (Float.abs a) (Float.abs b))

let alco_float ?(eps = 1e-9) name expected actual =
  Alcotest.(check bool)
    (Printf.sprintf "%s (expected %g, got %g)" name expected actual)
    true (float_eq ~eps expected actual)

(* The 200-instance equivalence corpus shared by test_scale and the
   checker golden: the paper's regimes plus a few mid-size trees,
   deterministic in the loop index, nothing drawn from a global PRNG. *)
let corpus_size = 200

let corpus_instance idx =
  let n = 4 + (idx * 13 mod 77) + if idx mod 10 = 0 then 150 else 0 in
  let alpha = [| 0.9; 1.1; 1.5; 1.7 |].(idx mod 4) in
  let sizes =
    if idx mod 7 = 3 then Insp.Config.Large
    else if idx mod 5 = 2 then Insp.Config.Custom_sizes (0.01, 0.05)
    else Insp.Config.Small
  in
  let rho = if sizes = Insp.Config.Large then 0.1 else 1.0 in
  Insp.Instance.generate
    (Insp.Config.make ~alpha ~sizes ~rho ~seed:(1000 + idx) ~n_operators:n ())

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Compare a rendering against a committed golden file.  On a mismatch
   the full actual rendering is written to [<stem>.actual] next to the
   test binary, ready to replace the golden when a change means it, and
   the first differing line is reported. *)
let check_golden ~what file actual =
  let expected = read_file file in
  if not (String.equal expected actual) then begin
    let oc = open_out_bin (Filename.remove_extension file ^ ".actual") in
    output_string oc actual;
    close_out oc;
    let rec first = function
      | e :: er, a :: ar -> if String.equal e a then first (er, ar) else (e, a)
      | e :: _, [] -> (e, "<end>")
      | [], a :: _ -> ("<end>", a)
      | [], [] -> ("", "")
    in
    let e, a =
      first (String.split_on_char '\n' expected, String.split_on_char '\n' actual)
    in
    Alcotest.failf "%s drifted from %s:\n  expected %s\n  actual   %s" what file e a
  end

(* One DES report as a golden line: the completed-result and event
   counts and the exact bits of throughput, delivered download volume
   and every processor's busy fraction. *)
let des_report_line buf label (r : Insp.Runtime.report) =
  Printf.bprintf buf "%s completed=%d events=%d thr=%h dl=%h busy=%s\n" label
    r.Insp.Runtime.results_completed r.Insp.Runtime.events
    r.Insp.Runtime.achieved_throughput r.Insp.Runtime.download_delivered
    (String.concat ","
       (Array.to_list
          (Array.map (Printf.sprintf "%h") r.Insp.Runtime.proc_busy)))

(* The tree pair-flow oracle: total MB/s exchanged between two distinct
   processors over their link, child-to-parent flows in both directions
   (constraint (5)'s left-hand side), summed from scratch over each
   processor's operator list. *)
let pair_flow app alloc u v =
  let tree = Insp.App.tree app in
  let rho = Insp.App.rho app in
  let flow_into host other =
    (* Children of operators on [host] that live on [other]. *)
    List.fold_left
      (fun acc i ->
        List.fold_left
          (fun acc j ->
            if Insp.Alloc.host alloc j = other then
              acc +. (rho *. Insp.App.output_size app j)
            else acc)
          acc (children tree i))
      0.0
      (Insp.Alloc.operators_of alloc host)
  in
  flow_into u v +. flow_into v u
