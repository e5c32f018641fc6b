(* Exporters over a filled sink: human-readable text report, metrics
   CSV, allocation profiles, and Chrome trace_event JSON (load in
   chrome://tracing or https://ui.perfetto.dev).  Span exports read the
   sink's frame tree (Prof) and its trace ring; the text and CSV forms
   order everything by registry insertion / tree order, so
   deterministic work exports deterministic values; durations and
   timestamps are timing-only (DESIGN.md §10). *)

let fmt_float v = Printf.sprintf "%.6g" v

(* ------------------------------------------------------------------ *)
(* CSV                                                                 *)

(* Deterministic percentile estimate over fixed histogram buckets:
   find the bucket holding the p-th observation (target rank p% of n)
   and interpolate linearly between its edges (the lower edge of the
   first bucket is 0).  Ranks landing in the overflow bucket pin to
   the last finite edge — the Prometheus convention — so the estimate
   never invents a value beyond the instrumented range. *)
let percentile (h : Metrics.histogram) p =
  let counts = h.Metrics.counts in
  let edges = h.Metrics.edges in
  let n_edges = Array.length edges in
  let target = p /. 100.0 *. float_of_int h.Metrics.observations in
  let rec go i cum =
    if i >= Array.length counts then edges.(n_edges - 1)
    else
      let cum' = cum + counts.(i) in
      if counts.(i) > 0 && float_of_int cum' >= target then
        if i >= n_edges then edges.(n_edges - 1)
        else
          let lo = if i = 0 then 0.0 else edges.(i - 1) in
          let hi = edges.(i) in
          lo
          +. (target -. float_of_int cum)
             /. float_of_int counts.(i)
             *. (hi -. lo)
      else go (i + 1) cum'
  in
  go 0 0

let metrics_csv_header = "kind,name,value"

(* One row per counter and gauge; histograms expand to one row per
   bucket (name.le.EDGE / name.overflow) plus name.count and name.sum. *)
let metrics_csv (o : Obs.t) =
  let buf = Buffer.create 1024 in
  let row kind name value =
    Buffer.add_string buf
      (Printf.sprintf "%s,%s,%s\n" kind (Insp_util.Csv.quote name) value)
  in
  Buffer.add_string buf (metrics_csv_header ^ "\n");
  List.iter
    (fun (name, v) ->
      match v with
      | Metrics.Counter_v c -> row "counter" name (string_of_int c)
      | Metrics.Gauge_v g -> row "gauge" name (fmt_float g)
      | Metrics.Histogram_v h ->
        Array.iteri
          (fun i count ->
            let bucket =
              if i < Array.length h.Metrics.edges then
                Printf.sprintf "%s.le.%s" name (fmt_float h.Metrics.edges.(i))
              else name ^ ".overflow"
            in
            row "histogram" bucket (string_of_int count))
          h.Metrics.counts;
        row "histogram" (name ^ ".count") (string_of_int h.Metrics.observations);
        row "histogram" (name ^ ".sum") (fmt_float h.Metrics.sum);
        row "histogram" (name ^ ".p50") (fmt_float (percentile h 50.0));
        row "histogram" (name ^ ".p90") (fmt_float (percentile h 90.0));
        row "histogram" (name ^ ".p99") (fmt_float (percentile h 99.0)))
    (Metrics.snapshot o.Obs.metrics);
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Text report                                                         *)

(* The frame tree depth-first, children in first-enter order: rows
   come parents-first, so consing them in reverse leaves every child
   list in row order. *)
let text_report (o : Obs.t) =
  let buf = Buffer.create 1024 in
  let rows = Array.of_list (Prof.rows o.Obs.prof) in
  let children = Array.make (Array.length rows) [] in
  let roots = ref [] in
  for id = Array.length rows - 1 downto 0 do
    let p = rows.(id).Prof.parent in
    if p < 0 then roots := id :: !roots
    else children.(p) <- id :: children.(p)
  done;
  let rec emit id =
    let r = rows.(id) in
    let indent = String.make (2 * (r.Prof.depth - 1)) ' ' in
    Buffer.add_string buf
      (match r.Prof.kind with
      | Prof.Fine ->
        Printf.sprintf "%s%-25s x%d\n" indent r.Prof.name r.Prof.count
      | Prof.Span ->
        Printf.sprintf "%s%-25s x%-6d %10.2f ms\n" indent r.Prof.name
          r.Prof.count (r.Prof.cum_us /. 1e3));
    List.iter emit children.(id)
  in
  if !roots <> [] then begin
    Buffer.add_string buf "-- spans (count, total ms) --\n";
    List.iter emit !roots
  end;
  let metrics = Metrics.snapshot o.Obs.metrics in
  let section title keep render =
    let rows = List.filter_map keep metrics in
    if rows <> [] then begin
      Buffer.add_string buf (Printf.sprintf "-- %s --\n" title);
      List.iter (fun r -> Buffer.add_string buf (render r)) rows
    end
  in
  section "counters"
    (fun (n, v) ->
      match v with Metrics.Counter_v c -> Some (n, c) | _ -> None)
    (fun (n, c) -> Printf.sprintf "%-32s %12d\n" n c);
  section "gauges"
    (fun (n, v) -> match v with Metrics.Gauge_v g -> Some (n, g) | _ -> None)
    (fun (n, g) -> Printf.sprintf "%-32s %12s\n" n (fmt_float g));
  section "histograms"
    (fun (n, v) ->
      match v with Metrics.Histogram_v h -> Some (n, h) | _ -> None)
    (fun (n, h) ->
      let cells =
        Array.to_list
          (Array.mapi
             (fun i count ->
               if i < Array.length h.Metrics.edges then
                 Printf.sprintf "<=%s:%d" (fmt_float h.Metrics.edges.(i)) count
               else Printf.sprintf ">:%d" count)
             h.Metrics.counts)
      in
      Printf.sprintf "%-32s n=%d [%s] p50=%s p90=%s p99=%s\n" n
        h.Metrics.observations
        (String.concat " " cells)
        (fmt_float (percentile h 50.0))
        (fmt_float (percentile h 90.0))
        (fmt_float (percentile h 99.0)));
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Allocation profile                                                  *)

(* Byte-identity contract: [prof_report] and the folded exporters key
   on minor words only — promoted/major words and collection counts
   depend on the minor heap's phase at run start and vary run-to-run
   (DESIGN.md §17).  The full five-metric dump lives in [prof_csv],
   which makes no byte-identity promise. *)

let fold_sep path = String.map (fun c -> if c = '/' then ';' else c) path

let prof_report ?(top = 20) (o : Obs.t) =
  let p = o.Obs.prof in
  if not (Prof.profiling p) then ""
  else
    let rows = Prof.rows p in
    let t = Prof.totals p in
    let buf = Buffer.create 1024 in
    Buffer.add_string buf
      (Printf.sprintf "-- allocation profile (top %d by self minor words) --\n"
         top);
    Buffer.add_string buf
      (Printf.sprintf "run total: %.0f minor words across %d span paths\n"
         t.Prof.t_minor (List.length rows));
    let sorted =
      List.stable_sort
        (fun a b ->
          match Float.compare b.Prof.self_minor a.Prof.self_minor with
          | 0 -> String.compare a.Prof.path b.Prof.path
          | c -> c)
        rows
    in
    let total = if t.Prof.t_minor > 0.0 then t.Prof.t_minor else 1.0 in
    List.iteri
      (fun i r ->
        if i < top && r.Prof.self_minor > 0.0 then
          Buffer.add_string buf
            (Printf.sprintf "%-40s x%-9d %14.0f %6.2f%%   cum %.0f\n"
               r.Prof.path r.Prof.count r.Prof.self_minor
               (100.0 *. r.Prof.self_minor /. total)
               r.Prof.cum_minor))
      sorted;
    Buffer.contents buf

let prof_csv_header =
  "path,depth,count,self_minor,cum_minor,self_promoted,cum_promoted,self_major,cum_major,self_minor_col,cum_minor_col,self_major_col,cum_major_col"

let prof_csv (o : Obs.t) =
  let p = o.Obs.prof in
  if not (Prof.profiling p) then ""
  else
    let buf = Buffer.create 1024 in
    Buffer.add_string buf (prof_csv_header ^ "\n");
    List.iter
      (fun (r : Prof.row) ->
        Buffer.add_string buf
          (Printf.sprintf "%s,%d,%d,%.0f,%.0f,%.0f,%.0f,%.0f,%.0f,%d,%d,%d,%d\n"
             (Insp_util.Csv.quote r.Prof.path) r.Prof.depth r.Prof.count
             r.Prof.self_minor r.Prof.cum_minor r.Prof.self_promoted
             r.Prof.cum_promoted r.Prof.self_major r.Prof.cum_major
             r.Prof.self_minor_collections r.Prof.cum_minor_collections
             r.Prof.self_major_collections r.Prof.cum_major_collections))
      (Prof.rows p);
    Buffer.contents buf

(* Folded-stack flamegraph lines ([a;b;c weight]) — feed to inferno,
   speedscope or flamegraph.pl — one per tree row with a positive
   weight: self minor words, or self microseconds. *)
let folded weight (o : Obs.t) =
  let buf = Buffer.create 1024 in
  List.iter
    (fun (r : Prof.row) ->
      let w = weight r in
      if w > 0.0 then
        Buffer.add_string buf
          (Printf.sprintf "%s %.0f\n" (fold_sep r.Prof.path) w))
    (Prof.rows o.Obs.prof);
  Buffer.contents buf

let prof_folded_alloc = folded (fun r -> r.Prof.self_minor)

let prof_folded_time = folded (fun r -> r.Prof.self_us)

(* ------------------------------------------------------------------ *)
(* Chrome trace_event JSON                                             *)

(* String escaping is shared with the journal exporter (Jsonc) so both
   emitters have the same — correct — canonical form. *)
let json_ts v = Printf.sprintf "%.3f" v

(* The JSON Array Format of the trace_event spec: one "X" (complete)
   event per span in the tree's trace ring, and a final "C" (counter)
   event per counter so headline totals show up as tracks. *)
let chrome_trace (o : Obs.t) =
  let buf = Buffer.create 4096 in
  let first = ref true in
  let event fields =
    if !first then first := false else Buffer.add_string buf ",\n";
    Buffer.add_string buf ("  {" ^ String.concat "," fields ^ "}")
  in
  let str k v = Printf.sprintf "\"%s\":%s" k (Jsonc.string v) in
  let num k v = Printf.sprintf "\"%s\":%s" k v in
  Buffer.add_string buf "[\n";
  event
    [
      str "name" "process_name"; str "ph" "M"; num "pid" "0"; num "tid" "0";
      num "ts" "0"; "\"args\":{\"name\":\"insp\"}";
    ];
  let end_ts = ref 0.0 in
  let rows = Array.of_list (Prof.rows o.Obs.prof) in
  Prof.iter_trace o.Obs.prof (fun id start_us dur_us ->
      let r = rows.(id) in
      if start_us +. dur_us > !end_ts then end_ts := start_us +. dur_us;
      let args =
        Printf.sprintf "\"args\":{\"path\":%s}" (Jsonc.string r.Prof.path)
      in
      event
        [
          str "name" r.Prof.name; str "cat" "span"; str "ph" "X";
          num "ts" (json_ts start_us); num "dur" (json_ts dur_us);
          num "pid" "0"; num "tid" "0"; args;
        ]);
  List.iter
    (fun (name, v) ->
      match v with
      | Metrics.Counter_v c ->
        event
          [
            str "name" name; str "cat" "counter"; str "ph" "C";
            num "ts" (json_ts !end_ts); num "pid" "0";
            Printf.sprintf "\"args\":{\"value\":%d}" c;
          ]
      | Metrics.Gauge_v _ | Metrics.Histogram_v _ -> ())
    (Metrics.snapshot o.Obs.metrics);
  Buffer.add_string buf "\n]\n";
  Buffer.contents buf

let save path contents =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc contents)
