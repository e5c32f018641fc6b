type t = { header : string list; mutable rows : string list list }

let create header = { header; rows = [] }

let add_row t row = t.rows <- row :: t.rows

let float_cell x =
  if Float.is_nan x then "" else Printf.sprintf "%.6g" x

let add_floats t row = add_row t (List.map float_cell row)

let needs_quoting s =
  String.exists (fun c -> c = ',' || c = '"' || c = '\n' || c = '\r') s

let quote s =
  if needs_quoting s then begin
    let buf = Buffer.create (String.length s + 2) in
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        if c = '"' then Buffer.add_string buf "\"\"" else Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"';
    Buffer.contents buf
  end
  else s

let to_string t =
  let buf = Buffer.create 1024 in
  let emit row =
    Buffer.add_string buf (String.concat "," (List.map quote row));
    Buffer.add_char buf '\n'
  in
  emit t.header;
  List.iter emit (List.rev t.rows);
  Buffer.contents buf
