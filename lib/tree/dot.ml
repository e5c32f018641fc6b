let emit ?app tree =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "digraph operator_tree {\n";
  Buffer.add_string buf "  rankdir=BT;\n";
  let n = Optree.n_operators tree in
  for i = 0 to n - 1 do
    let label =
      match app with
      | None -> Printf.sprintf "n%d" i
      | Some a ->
        Printf.sprintf "n%d\\nw=%.1f\\nd=%.1f" i (App.work a i)
          (App.output_size a i)
    in
    Buffer.add_string buf
      (Printf.sprintf "  n%d [shape=box, label=\"%s\"];\n" i label)
  done;
  let leaf_counter = ref 0 in
  for i = 0 to n - 1 do
    (match Optree.parent tree i with
    | None -> ()
    | Some p -> Buffer.add_string buf (Printf.sprintf "  n%d -> n%d;\n" i p));
    List.iter
      (fun k ->
        let id = !leaf_counter in
        incr leaf_counter;
        Buffer.add_string buf
          (Printf.sprintf "  leaf%d [shape=ellipse, label=\"o%d\"];\n" id k);
        Buffer.add_string buf (Printf.sprintf "  leaf%d -> n%d;\n" id i))
      (Optree.leaves tree i)
  done;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let of_app app = emit ~app (App.tree app)

let save dot path =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc dot)
