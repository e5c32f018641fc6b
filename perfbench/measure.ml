(* Timing, allocation and span recording for the benchmark.

   Everything here measures from outside the library: a monotonic
   clock around each call, and a [Gc.minor_words] delta for the words
   it allocated on the minor heap. *)

let now_ns () = Monotonic_clock.now ()

let ms_between t0 t1 = Int64.to_float (Int64.sub t1 t0) /. 1e6

(* Growable float buffer: per-op latencies of a run. *)
module Samples = struct
  type t = { mutable data : float array; mutable len : int }

  let create () = { data = Array.make 1024 0.0; len = 0 }

  let add t x =
    if t.len = Array.length t.data then begin
      let bigger = Array.make (2 * t.len) 0.0 in
      Array.blit t.data 0 bigger 0 t.len;
      t.data <- bigger
    end;
    t.data.(t.len) <- x;
    t.len <- t.len + 1

  let length t = t.len
  let to_array t = Array.sub t.data 0 t.len
  let sum t = Array.fold_left ( +. ) 0.0 (to_array t)
end

(* Nearest-rank percentile of an unsorted sample, [p] in (0, 1]. *)
let percentile xs p =
  let n = Array.length xs in
  if n = 0 then nan
  else begin
    let s = Array.copy xs in
    Array.sort Float.compare s;
    let rank = int_of_float (Float.ceil (p *. float_of_int n)) in
    s.(max 0 (min (n - 1) (rank - 1)))
  end

let median xs = percentile xs 0.5

(* ------------------------------------------------------------------ *)
(* Machine-speed reference                                              *)

(* A fixed computation independent of the library: hashing, sorting and
   list allocation.  The machines this benchmark runs on change speed in
   phases (about 1.5x apart, seconds to minutes long), and every code
   path slows alike, this kernel included. *)
let reference_kernel () =
  let h = Hashtbl.create 1024 in
  for i = 0 to 4_000 do
    Hashtbl.replace h (i * 7919 mod 10007) (string_of_int i)
  done;
  let a = Array.init 4_000 (fun i -> float_of_int (i * 7919 mod 10007)) in
  Array.sort Float.compare a;
  let l = List.init 4_000 (fun i -> (i, 2 * i)) in
  let kept = List.filter (fun (k, _) -> k mod 3 = 0) l in
  Hashtbl.length h + List.length kept + int_of_float a.(0)

(* The kernel's time (ms) in a fast phase of the 2-vCPU machine the
   benchmark was tuned on; latencies are scaled by this over the
   kernel's time measured just before the op. *)
let reference_ms = 2.0

(* Fastest of three runs, so one interruption does not count as a slow
   phase. *)
let reference_sample () =
  let once () =
    let t0 = now_ns () in
    ignore (Sys.opaque_identity (reference_kernel ()));
    ms_between t0 (now_ns ())
  in
  Float.min (once ()) (Float.min (once ()) (once ()))

let peak_heap_mb () =
  let words = (Gc.quick_stat ()).Gc.top_heap_words in
  float_of_int (words * (Sys.word_size / 8)) /. (1024.0 *. 1024.0)

(* ------------------------------------------------------------------ *)
(* Spans: one per outside call, kept in memory, written out at exit.    *)

type span = {
  id : int;
  parent : int;  (** -1 for an op's root span *)
  op : int;  (** index of the op the call belongs to *)
  name : string;
  start_ns : int64;
  end_ns : int64;
  words : float;  (** minor words allocated inside the call *)
}

module Trace = struct
  type t = {
    mutable spans : span list;  (** completion order, newest first *)
    mutable next : int;
    mutable stack : int list;  (** open span ids, innermost first *)
    mutable op : int;
  }

  let create () = { spans = []; next = 0; stack = []; op = 0 }
  let set_op t op = t.op <- op

  (* [call t name f] times [f ()] as a span under the innermost open
     one.  The clock and GC reads sit outside [f], so a layer's span
     covers exactly the library call. *)
  let call t name f =
    let id = t.next in
    t.next <- id + 1;
    let parent = match t.stack with p :: _ -> p | [] -> -1 in
    t.stack <- id :: t.stack;
    let w0 = Gc.minor_words () in
    let start_ns = now_ns () in
    let finish () =
      let end_ns = now_ns () in
      let words = Gc.minor_words () -. w0 in
      t.stack <- List.tl t.stack;
      t.spans <- { id; parent; op = t.op; name; start_ns; end_ns; words } :: t.spans
    in
    match f () with
    | r ->
      finish ();
      r
    | exception e ->
      finish ();
      raise e

  let spans t = List.rev t.spans

  (* Per span name: total duration (ms), self duration (ms, the span
     minus its direct children), minor words and call count. *)
  type layer = { total_ms : float; self_ms : float; total_words : float; calls : int }

  let layers t =
    let child_ms = Hashtbl.create 64 in
    List.iter
      (fun s ->
        if s.parent >= 0 then
          Hashtbl.replace child_ms s.parent
            (ms_between s.start_ns s.end_ns
            +. Option.value ~default:0.0 (Hashtbl.find_opt child_ms s.parent)))
      t.spans;
    let by_name = Hashtbl.create 32 in
    List.iter
      (fun s ->
        let dur = ms_between s.start_ns s.end_ns in
        let cm = Option.value ~default:0.0 (Hashtbl.find_opt child_ms s.id) in
        let l =
          Option.value
            ~default:
              { total_ms = 0.0; self_ms = 0.0; total_words = 0.0; calls = 0 }
            (Hashtbl.find_opt by_name s.name)
        in
        Hashtbl.replace by_name s.name
          {
            total_ms = l.total_ms +. dur;
            self_ms = l.self_ms +. (dur -. cm);
            total_words = l.total_words +. s.words;
            calls = l.calls + 1;
          })
      t.spans;
    by_name

  (* JSON lines, one span each, times relative to the first span. *)
  let write t path =
    let spans = spans t in
    let origin =
      match spans with
      | [] -> 0L
      | s :: _ -> List.fold_left (fun m s -> min m s.start_ns) s.start_ns spans
    in
    let oc = open_out path in
    List.iter
      (fun s ->
        Printf.fprintf oc
          "{\"id\":%d,\"parent\":%d,\"op\":%d,\"name\":%S,\"start_us\":%.3f,\"end_us\":%.3f,\"minor_words\":%.0f}\n"
          s.id s.parent s.op s.name
          (ms_between origin s.start_ns *. 1e3)
          (ms_between origin s.end_ns *. 1e3)
          s.words)
      spans;
    close_out oc
end
