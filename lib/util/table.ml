type align = Left | Right | Center

type row = Cells of string list | Separator

type t = {
  title : string option;
  headers : (string * align) list;
  mutable rows : row list;  (* reverse order *)
}

let create ?title headers = { title; headers; rows = [] }

let add_row t cells =
  let width = List.length t.headers in
  let n = List.length cells in
  if n > width then invalid_arg "Table.add_row: too many cells";
  let padded =
    if n = width then cells else cells @ List.init (width - n) (fun _ -> "")
  in
  t.rows <- Cells padded :: t.rows

let add_separator t = t.rows <- Separator :: t.rows

let pad align width s =
  let n = String.length s in
  if n >= width then s
  else
    let missing = width - n in
    match align with
    | Left -> s ^ String.make missing ' '
    | Right -> String.make missing ' ' ^ s
    | Center ->
      let left = missing / 2 in
      String.make left ' ' ^ s ^ String.make (missing - left) ' '

let render t =
  (* Arrays for anything indexed per-column: positional access is total
     here because [add_row] pads every row to the header width. *)
  let headers = Array.of_list (List.map fst t.headers) in
  let aligns = Array.of_list (List.map snd t.headers) in
  let rows = List.rev t.rows in
  let cell_rows =
    List.filter_map
      (function Cells c -> Some (Array.of_list c) | Separator -> None)
      rows
  in
  let widths =
    Array.mapi
      (fun i h ->
        List.fold_left
          (fun acc cells -> max acc (String.length cells.(i)))
          (String.length h) cell_rows)
      headers
  in
  let buf = Buffer.create 1024 in
  let rule () =
    Buffer.add_char buf '+';
    Array.iter
      (fun w ->
        Buffer.add_string buf (String.make (w + 2) '-');
        Buffer.add_char buf '+')
      widths;
    Buffer.add_char buf '\n'
  in
  let emit_cells cells aligns =
    Buffer.add_char buf '|';
    Array.iteri
      (fun i cell ->
        Buffer.add_char buf ' ';
        Buffer.add_string buf (pad aligns.(i) widths.(i) cell);
        Buffer.add_string buf " |")
      cells;
    Buffer.add_char buf '\n'
  in
  (match t.title with
  | None -> ()
  | Some title ->
    Buffer.add_string buf title;
    Buffer.add_char buf '\n');
  rule ();
  emit_cells headers (Array.map (fun _ -> Center) headers);
  rule ();
  List.iter
    (function
      | Cells cells -> emit_cells (Array.of_list cells) aligns
      | Separator -> rule ())
    rows;
  rule ();
  Buffer.contents buf

let print t =
  print_string (render t);
  print_newline ()
