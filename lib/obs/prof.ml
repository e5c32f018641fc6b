(* The frame tree: the one recorder behind Obs.span and the profiler
   entry points (DESIGN.md §10, §17).

   Structure-of-arrays on both axes, matching the arena idiom of
   DESIGN.md §16: the frame stack and the row table are parallel
   columns (unboxed float arrays for times and word counters), so
   opening and closing a frame allocates nothing beyond the boxed floats
   the clock returns, and a row is a dense int id interned once per
   distinct path.  A row's children form a sibling list in first-enter
   order; interning scans it with [String.equal], which allocates
   nothing and usually hits on the first compare (frame names are
   literals, so the strings are physically equal).

   Snapshot placement: enter reads the clock first and the GC last;
   exit reads the GC first and the clock last.  The profiler's own
   bookkeeping words and the clock's boxed floats therefore land in the
   parent frame's self figures, never in the measured frame.

   Span completions also go to a trace ring of at most
   [trace_capacity] entries for the Chrome exporter.  The ring starts
   small and doubles while below capacity, so a tree that records a
   handful of spans (one per serve admission) stays cheap; at capacity
   it overwrites the oldest entry.

   This module is the one sanctioned reader of GC state outside
   bench/ (lint rule D7); engines must route attribution through
   Obs.prof_enter/prof_exit. *)

type kind = Fine | Span

type row = {
  name : string;
  parent : int;
  path : string;
  depth : int;
  kind : kind;
  count : int;
  self_us : float;
  cum_us : float;
  self_minor : float;
  cum_minor : float;
  self_promoted : float;
  cum_promoted : float;
  self_major : float;
  cum_major : float;
  self_minor_collections : int;
  cum_minor_collections : int;
  self_major_collections : int;
  cum_major_collections : int;
}

type totals = {
  t_minor : float;
  t_promoted : float;
  t_major : float;
  t_minor_collections : int;
  t_major_collections : int;
}

let trace_capacity = 4096

type t = {
  gc : bool;
  (* row table: one entry per distinct path, in first-enter order *)
  mutable rows : int;
  mutable root : int; (* first root row, -1 for none *)
  mutable r_name : string array;
  mutable r_parent : int array; (* -1 for roots *)
  mutable r_child : int array; (* first child, -1 for none *)
  mutable r_sibling : int array; (* next sibling, -1 for none *)
  mutable r_kind : kind array;
  mutable r_count : int array;
  mutable r_self_us : float array;
  mutable r_cum_us : float array;
  mutable r_self_minor : float array;
  mutable r_cum_minor : float array;
  mutable r_self_promoted : float array;
  mutable r_cum_promoted : float array;
  mutable r_self_major : float array;
  mutable r_cum_major : float array;
  mutable r_self_mcol : int array;
  mutable r_cum_mcol : int array;
  mutable r_self_jcol : int array;
  mutable r_cum_jcol : int array;
  (* frame stack *)
  mutable depth : int;
  mutable f_row : int array;
  mutable f_span : bool array;
  mutable f_t0 : float array;
  mutable f_minor0 : float array;
  mutable f_promoted0 : float array;
  mutable f_major0 : float array;
  mutable f_mcol0 : int array;
  mutable f_jcol0 : int array;
  (* per-frame accumulators: time of the nearest timed descendants,
     direct-child minor deltas, and detailed deltas of span descendants
     not yet claimed by a span ancestor (fine frames pass time and
     detailed deltas through at exit) *)
  mutable f_child_us : float array;
  mutable f_child_minor : float array;
  mutable f_child_promoted : float array;
  mutable f_child_major : float array;
  mutable f_child_mcol : int array;
  mutable f_child_jcol : int array;
  (* trace ring: entry [j mod length] holds the j-th completion *)
  mutable ring_row : int array;
  mutable ring_start : float array;
  mutable ring_dur : float array;
  mutable completions : int;
  (* GC deltas accumulated across completed top-level frames *)
  mutable total_minor : float;
  mutable total_promoted : float;
  mutable total_major : float;
  mutable total_mcol : int;
  mutable total_jcol : int;
}

(* A fresh tree's columns are 8-entry literals, which compile to inline
   allocations.  Every serve admission records into a fresh
   non-profiling tree, and with one [Array.make] runtime call per column
   creating the tree cost about as much as recording the admission's
   spans into it.  Non-profiling trees carry no GC columns at all. *)
let ints (x : int) = [| x; x; x; x; x; x; x; x |]
let floats (x : float) = [| x; x; x; x; x; x; x; x |]
let strings (x : string) = [| x; x; x; x; x; x; x; x |]
let bools (x : bool) = [| x; x; x; x; x; x; x; x |]
let kinds (x : kind) = [| x; x; x; x; x; x; x; x |]

let grow a n fill =
  let b = Array.make n fill in
  Array.blit a 0 b 0 (Array.length a);
  b

let grow_rows t =
  let n = 2 * Array.length t.r_count in
  t.r_name <- grow t.r_name n "";
  t.r_parent <- grow t.r_parent n (-1);
  t.r_child <- grow t.r_child n (-1);
  t.r_sibling <- grow t.r_sibling n (-1);
  t.r_kind <- grow t.r_kind n Fine;
  t.r_count <- grow t.r_count n 0;
  t.r_self_us <- grow t.r_self_us n 0.0;
  t.r_cum_us <- grow t.r_cum_us n 0.0;
  if t.gc then begin
    t.r_self_minor <- grow t.r_self_minor n 0.0;
    t.r_cum_minor <- grow t.r_cum_minor n 0.0;
    t.r_self_promoted <- grow t.r_self_promoted n 0.0;
    t.r_cum_promoted <- grow t.r_cum_promoted n 0.0;
    t.r_self_major <- grow t.r_self_major n 0.0;
    t.r_cum_major <- grow t.r_cum_major n 0.0;
    t.r_self_mcol <- grow t.r_self_mcol n 0;
    t.r_cum_mcol <- grow t.r_cum_mcol n 0;
    t.r_self_jcol <- grow t.r_self_jcol n 0;
    t.r_cum_jcol <- grow t.r_cum_jcol n 0
  end

let grow_stack t =
  let n = 2 * Array.length t.f_row in
  t.f_row <- grow t.f_row n 0;
  t.f_span <- grow t.f_span n false;
  t.f_t0 <- grow t.f_t0 n 0.0;
  t.f_child_us <- grow t.f_child_us n 0.0;
  if t.gc then begin
    t.f_minor0 <- grow t.f_minor0 n 0.0;
    t.f_promoted0 <- grow t.f_promoted0 n 0.0;
    t.f_major0 <- grow t.f_major0 n 0.0;
    t.f_mcol0 <- grow t.f_mcol0 n 0;
    t.f_jcol0 <- grow t.f_jcol0 n 0;
    t.f_child_minor <- grow t.f_child_minor n 0.0;
    t.f_child_promoted <- grow t.f_child_promoted n 0.0;
    t.f_child_major <- grow t.f_child_major n 0.0;
    t.f_child_mcol <- grow t.f_child_mcol n 0;
    t.f_child_jcol <- grow t.f_child_jcol n 0
  end

let create ~profile () =
  let t =
    {
      gc = profile;
      rows = 0;
      root = -1;
      r_name = strings "";
      r_parent = ints (-1);
      r_child = ints (-1);
      r_sibling = ints (-1);
      r_kind = kinds Fine;
      r_count = ints 0;
      r_self_us = floats 0.0;
      r_cum_us = floats 0.0;
      r_self_minor = [||];
      r_cum_minor = [||];
      r_self_promoted = [||];
      r_cum_promoted = [||];
      r_self_major = [||];
      r_cum_major = [||];
      r_self_mcol = [||];
      r_cum_mcol = [||];
      r_self_jcol = [||];
      r_cum_jcol = [||];
      depth = 0;
      f_row = ints 0;
      f_span = bools false;
      f_t0 = floats 0.0;
      f_minor0 = [||];
      f_promoted0 = [||];
      f_major0 = [||];
      f_mcol0 = [||];
      f_jcol0 = [||];
      f_child_us = floats 0.0;
      f_child_minor = [||];
      f_child_promoted = [||];
      f_child_major = [||];
      f_child_mcol = [||];
      f_child_jcol = [||];
      ring_row = ints 0;
      ring_start = floats 0.0;
      ring_dur = floats 0.0;
      completions = 0;
      total_minor = 0.0;
      total_promoted = 0.0;
      total_major = 0.0;
      total_mcol = 0;
      total_jcol = 0;
    }
  in
  (* Growing adds the GC columns.  Profiling trees start at twice the
     size: column growth is charged to the frame whose entry triggers
     it, and a small profiled solve should not pay for it. *)
  if profile then begin
    grow_rows t;
    grow_stack t
  end;
  t

let profiling t = t.gc

let new_row t parent name kind =
  if t.rows = Array.length t.r_count then grow_rows t;
  let id = t.rows in
  t.rows <- id + 1;
  t.r_name.(id) <- name;
  t.r_parent.(id) <- parent;
  t.r_kind.(id) <- kind;
  id

(* Walk [parent]'s sibling list from [c], appending a new row on a
   miss.  Top-level recursion: a local closure would allocate on every
   lookup. *)
let rec scan t parent name kind c =
  if String.equal t.r_name.(c) name then c
  else
    let s = t.r_sibling.(c) in
    if s >= 0 then scan t parent name kind s
    else begin
      let id = new_row t parent name kind in
      t.r_sibling.(c) <- id;
      id
    end

(* The row of [name] under [parent] (-1: a root), created on first use
   with [kind]. *)
let intern t parent name kind =
  let first = if parent < 0 then t.root else t.r_child.(parent) in
  if first >= 0 then scan t parent name kind first
  else begin
    let id = new_row t parent name kind in
    if parent < 0 then t.root <- id else t.r_child.(parent) <- id;
    id
  end

let top t = if t.depth = 0 then -1 else t.f_row.(t.depth - 1)

let open_frame t name kind =
  let id = intern t (top t) name kind in
  if t.depth = Array.length t.f_row then grow_stack t;
  let k = t.depth in
  t.f_row.(k) <- id;
  t.f_span.(k) <- (match kind with Span -> true | Fine -> false);
  t.f_child_us.(k) <- 0.0;
  if t.gc then begin
    t.f_child_minor.(k) <- 0.0;
    t.f_child_promoted.(k) <- 0.0;
    t.f_child_major.(k) <- 0.0;
    t.f_child_mcol.(k) <- 0;
    t.f_child_jcol.(k) <- 0
  end;
  t.depth <- k + 1;
  k

let enter t name =
  let k = open_frame t name Fine in
  (* lint: allow d7 — the profiler is the sanctioned GC reader *)
  t.f_minor0.(k) <- Gc.minor_words ()

let enter_span t name =
  let now = Clock.elapsed_us () in
  let k = open_frame t name Span in
  t.f_t0.(k) <- now;
  if t.gc then begin
    (* lint: allow d7 — the profiler is the sanctioned GC reader *)
    let s = Gc.quick_stat () in
    t.f_promoted0.(k) <- s.Gc.promoted_words;
    t.f_major0.(k) <- s.Gc.major_words;
    t.f_mcol0.(k) <- s.Gc.minor_collections;
    t.f_jcol0.(k) <- s.Gc.major_collections;
    (* Minor words come from [Gc.minor_words], NOT [s.Gc.minor_words]:
       on OCaml 5 the quick_stat/counters figure only advances at minor
       collections (the live young-area fill is not added in), which
       quantizes span deltas to whole minor heaps — a phase allocating
       under one heap's worth reads as zero, and self words can go
       negative against precise child frames.  [Gc.minor_words] reads
       the live allocation pointer and is allocation-exact, which is
       what the determinism contract needs; read it last so the
       quick_stat words land in the parent's self, not this frame's. *)
    (* lint: allow d7 — the profiler is the sanctioned GC reader *)
    t.f_minor0.(k) <- Gc.minor_words ()
  end

(* Next trace-ring slot; a full ring below capacity doubles. *)
let ring_slot t =
  let len = Array.length t.ring_row in
  if t.completions = len && len < trace_capacity then begin
    let n = min trace_capacity (2 * len) in
    t.ring_row <- grow t.ring_row n 0;
    t.ring_start <- grow t.ring_start n 0.0;
    t.ring_dur <- grow t.ring_dur n 0.0
  end;
  let slot = t.completions mod Array.length t.ring_row in
  t.completions <- t.completions + 1;
  slot

let exit t =
  if t.depth > 0 then begin
    let k = t.depth - 1 in
    let id = t.f_row.(k) in
    let span = t.f_span.(k) in
    if t.gc then begin
      (* lint: allow d7 — the profiler is the sanctioned GC reader *)
      let minor1 = Gc.minor_words () in
      let d_minor = minor1 -. t.f_minor0.(k) in
      t.r_cum_minor.(id) <- t.r_cum_minor.(id) +. d_minor;
      t.r_self_minor.(id) <-
        t.r_self_minor.(id) +. (d_minor -. t.f_child_minor.(k));
      if span then begin
        (* precise minor words first (see enter_span), quick_stat for
           the collection-grained metrics after *)
        (* lint: allow d7 — the profiler is the sanctioned GC reader *)
        let s = Gc.quick_stat () in
        let d_prom = s.Gc.promoted_words -. t.f_promoted0.(k) in
        let d_major = s.Gc.major_words -. t.f_major0.(k) in
        let d_mcol = s.Gc.minor_collections - t.f_mcol0.(k) in
        let d_jcol = s.Gc.major_collections - t.f_jcol0.(k) in
        t.r_cum_promoted.(id) <- t.r_cum_promoted.(id) +. d_prom;
        t.r_self_promoted.(id) <-
          t.r_self_promoted.(id) +. (d_prom -. t.f_child_promoted.(k));
        t.r_cum_major.(id) <- t.r_cum_major.(id) +. d_major;
        t.r_self_major.(id) <-
          t.r_self_major.(id) +. (d_major -. t.f_child_major.(k));
        t.r_cum_mcol.(id) <- t.r_cum_mcol.(id) + d_mcol;
        t.r_self_mcol.(id) <- t.r_self_mcol.(id) + (d_mcol - t.f_child_mcol.(k));
        t.r_cum_jcol.(id) <- t.r_cum_jcol.(id) + d_jcol;
        t.r_self_jcol.(id) <- t.r_self_jcol.(id) + (d_jcol - t.f_child_jcol.(k));
        (* claimed: from here on the accumulators carry this frame's own
           detailed deltas *)
        t.f_child_promoted.(k) <- d_prom;
        t.f_child_major.(k) <- d_major;
        t.f_child_mcol.(k) <- d_mcol;
        t.f_child_jcol.(k) <- d_jcol
      end;
      if k > 0 then begin
        (* detailed accumulators go up as they stand: a fine frame
           measures minor words only, so it passes its span
           descendants' deltas through untouched *)
        let j = k - 1 in
        t.f_child_minor.(j) <- t.f_child_minor.(j) +. d_minor;
        t.f_child_promoted.(j) <- t.f_child_promoted.(j) +. t.f_child_promoted.(k);
        t.f_child_major.(j) <- t.f_child_major.(j) +. t.f_child_major.(k);
        t.f_child_mcol.(j) <- t.f_child_mcol.(j) + t.f_child_mcol.(k);
        t.f_child_jcol.(j) <- t.f_child_jcol.(j) + t.f_child_jcol.(k)
      end
      else begin
        t.total_minor <- t.total_minor +. d_minor;
        t.total_promoted <- t.total_promoted +. t.f_child_promoted.(k);
        t.total_major <- t.total_major +. t.f_child_major.(k);
        t.total_mcol <- t.total_mcol + t.f_child_mcol.(k);
        t.total_jcol <- t.total_jcol + t.f_child_jcol.(k)
      end
    end;
    t.depth <- k;
    t.r_count.(id) <- t.r_count.(id) + 1;
    if span then begin
      let now = Clock.elapsed_us () in
      let start = t.f_t0.(k) in
      let dur = now -. start in
      t.r_cum_us.(id) <- t.r_cum_us.(id) +. dur;
      t.r_self_us.(id) <- t.r_self_us.(id) +. (dur -. t.f_child_us.(k));
      if k > 0 then t.f_child_us.(k - 1) <- t.f_child_us.(k - 1) +. dur;
      let slot = ring_slot t in
      t.ring_row.(slot) <- id;
      t.ring_start.(slot) <- start;
      t.ring_dur.(slot) <- dur
    end
    else if k > 0 then
      t.f_child_us.(k - 1) <- t.f_child_us.(k - 1) +. t.f_child_us.(k)
  end

let depth t = t.depth

let unwind t ~depth =
  while t.depth > depth do
    exit t
  done

let rows t =
  let path = Array.make t.rows "" and depth = Array.make t.rows 1 in
  for id = 0 to t.rows - 1 do
    let p = t.r_parent.(id) in
    if p < 0 then path.(id) <- t.r_name.(id)
    else begin
      path.(id) <- path.(p) ^ "/" ^ t.r_name.(id);
      depth.(id) <- depth.(p) + 1
    end
  done;
  List.init t.rows (fun id ->
      let f a = if t.gc then a.(id) else 0.0 in
      let i a = if t.gc then a.(id) else 0 in
      {
        name = t.r_name.(id);
        parent = t.r_parent.(id);
        path = path.(id);
        depth = depth.(id);
        kind = t.r_kind.(id);
        count = t.r_count.(id);
        self_us = t.r_self_us.(id);
        cum_us = t.r_cum_us.(id);
        self_minor = f t.r_self_minor;
        cum_minor = f t.r_cum_minor;
        self_promoted = f t.r_self_promoted;
        cum_promoted = f t.r_cum_promoted;
        self_major = f t.r_self_major;
        cum_major = f t.r_cum_major;
        self_minor_collections = i t.r_self_mcol;
        cum_minor_collections = i t.r_cum_mcol;
        self_major_collections = i t.r_self_jcol;
        cum_major_collections = i t.r_cum_jcol;
      })

let totals t =
  {
    t_minor = t.total_minor;
    t_promoted = t.total_promoted;
    t_major = t.total_major;
    t_minor_collections = t.total_mcol;
    t_major_collections = t.total_jcol;
  }

let iter_trace t f =
  let len = Array.length t.ring_row in
  for j = max 0 (t.completions - len) to t.completions - 1 do
    let s = j mod len in
    f t.ring_row.(s) t.ring_start.(s) t.ring_dur.(s)
  done

let merge ~into src =
  let map = Array.make (max 1 src.rows) (-1) in
  for id = 0 to src.rows - 1 do
    (* a parent row is always created before its children, so
       [map.(parent)] is already resolved when we reach [id] *)
    let parent = src.r_parent.(id) in
    let did =
      intern into
        (if parent < 0 then -1 else map.(parent))
        src.r_name.(id) src.r_kind.(id)
    in
    map.(id) <- did;
    into.r_count.(did) <- into.r_count.(did) + src.r_count.(id);
    into.r_self_us.(did) <- into.r_self_us.(did) +. src.r_self_us.(id);
    into.r_cum_us.(did) <- into.r_cum_us.(did) +. src.r_cum_us.(id);
    if into.gc && src.gc then begin
      into.r_self_minor.(did) <- into.r_self_minor.(did) +. src.r_self_minor.(id);
      into.r_cum_minor.(did) <- into.r_cum_minor.(did) +. src.r_cum_minor.(id);
      into.r_self_promoted.(did) <-
        into.r_self_promoted.(did) +. src.r_self_promoted.(id);
      into.r_cum_promoted.(did) <-
        into.r_cum_promoted.(did) +. src.r_cum_promoted.(id);
      into.r_self_major.(did) <- into.r_self_major.(did) +. src.r_self_major.(id);
      into.r_cum_major.(did) <- into.r_cum_major.(did) +. src.r_cum_major.(id);
      into.r_self_mcol.(did) <- into.r_self_mcol.(did) + src.r_self_mcol.(id);
      into.r_cum_mcol.(did) <- into.r_cum_mcol.(did) + src.r_cum_mcol.(id);
      into.r_self_jcol.(did) <- into.r_self_jcol.(did) + src.r_self_jcol.(id);
      into.r_cum_jcol.(did) <- into.r_cum_jcol.(did) + src.r_cum_jcol.(id)
    end
  done;
  into.total_minor <- into.total_minor +. src.total_minor;
  into.total_promoted <- into.total_promoted +. src.total_promoted;
  into.total_major <- into.total_major +. src.total_major;
  into.total_mcol <- into.total_mcol + src.total_mcol;
  into.total_jcol <- into.total_jcol + src.total_jcol

let allocated_minor_words f =
  (* lint: allow d7 — the profiler is the sanctioned GC reader *)
  let a = Gc.minor_words () in
  f ();
  (* lint: allow d7 — the profiler is the sanctioned GC reader *)
  Gc.minor_words () -. a
