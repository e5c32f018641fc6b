type stats = {
  refreshes : int;
  components_recomputed : int;
  flows_recomputed : int;
  rounds : int;
}

type t = {
  (* Constraints, dense and never recycled: index order is the
     tie-break order, so it must be stable across the kernel's
     lifetime. *)
  mutable caps : float array;
  mutable n_caps : int;
  (* Reverse incidence: the active fids crossing constraint [c] are
     [flows_of.(c).(0 .. deg.(c) - 1)], ascending.  Keeping them sorted
     on insert makes a water-fill round's freeze order (ascending fid,
     the oracle's) a plain walk of the bottleneck's row. *)
  mutable flows_of : int array array;
  mutable deg : int array;
  (* Flows, indexed by fid.  Slots are reused LIFO so the arrays stay
     sized by the number of concurrently active flows, not the total
     ever started. *)
  mutable membership : int array array;
  mutable active : bool array;
  mutable rates : float array;
  mutable frozen : bool array;  (* water-fill scratch *)
  mutable n_slots : int;
  mutable free_fids : int array;  (* stack, top at [n_free - 1] *)
  mutable n_free : int;
  (* cids touched since the last refresh, each pushed once. *)
  mutable dirty : int array;
  mutable n_dirty : int;
  mutable is_dirty : bool array;
  (* Water-fill scratch.  Flat, reused across refreshes and grown on
     demand: the hot path must not allocate. *)
  mutable remaining : float array;  (* by cid *)
  mutable unfrozen : int array;  (* by cid *)
  mutable share : float array;  (* by cid: remaining / unfrozen *)
  mutable comp_caps : int array;  (* BFS queue, then the live caps *)
  mutable n_comp_caps : int;
  mutable comp_flows : int array;  (* component fids, any order *)
  mutable n_comp_flows : int;
  mutable flow_mark : int array;  (* by fid: generation stamp *)
  mutable cap_mark : int array;  (* by cid: generation stamp *)
  mutable mark : int;
  mutable s_refreshes : int;
  mutable s_components : int;
  mutable s_flows : int;
  mutable s_rounds : int;
}

let create () =
  {
    caps = [||];
    n_caps = 0;
    flows_of = [||];
    deg = [||];
    membership = [||];
    active = [||];
    rates = [||];
    frozen = [||];
    n_slots = 0;
    free_fids = [||];
    n_free = 0;
    dirty = [||];
    n_dirty = 0;
    is_dirty = [||];
    remaining = [||];
    unfrozen = [||];
    share = [||];
    comp_caps = [||];
    n_comp_caps = 0;
    comp_flows = [||];
    n_comp_flows = 0;
    flow_mark = [||];
    cap_mark = [||];
    mark = 0;
    s_refreshes = 0;
    s_components = 0;
    s_flows = 0;
    s_rounds = 0;
  }

let grown a n v =
  if Array.length a >= n then a
  else begin
    let b = Array.make (max 8 (max n (2 * Array.length a))) v in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

let add_constraint t cap =
  if cap < 0.0 then invalid_arg "Fair_share_inc.add_constraint: negative cap";
  let cid = t.n_caps in
  t.n_caps <- cid + 1;
  t.caps <- grown t.caps t.n_caps 0.0;
  t.caps.(cid) <- cap;
  t.flows_of <- grown t.flows_of t.n_caps [||];
  t.deg <- grown t.deg t.n_caps 0;
  t.dirty <- grown t.dirty t.n_caps 0;
  t.is_dirty <- grown t.is_dirty t.n_caps false;
  t.remaining <- grown t.remaining t.n_caps 0.0;
  t.unfrozen <- grown t.unfrozen t.n_caps 0;
  t.share <- grown t.share t.n_caps 0.0;
  t.comp_caps <- grown t.comp_caps t.n_caps 0;
  t.cap_mark <- grown t.cap_mark t.n_caps 0;
  cid

(* Marks a constraint's component stale until the next refresh. *)
let touch t c =
  if not t.is_dirty.(c) then begin
    t.is_dirty.(c) <- true;
    t.dirty.(t.n_dirty) <- c;
    t.n_dirty <- t.n_dirty + 1
  end

let set_capacity t cid cap =
  if cid < 0 || cid >= t.n_caps then
    invalid_arg "Fair_share_inc.set_capacity: bad constraint index";
  if cap < 0.0 then invalid_arg "Fair_share_inc.set_capacity: negative cap";
  t.caps.(cid) <- cap;
  touch t cid

(* Inserts [fid] into constraint [c]'s ascending row. *)
let insert_flow t c fid =
  let d = t.deg.(c) in
  let row = grown t.flows_of.(c) (d + 1) 0 in
  t.flows_of.(c) <- row;
  let i = ref d in
  while !i > 0 && row.(!i - 1) > fid do
    row.(!i) <- row.(!i - 1);
    decr i
  done;
  row.(!i) <- fid;
  t.deg.(c) <- d + 1

let delete_flow t c fid =
  let row = t.flows_of.(c) in
  let d = t.deg.(c) - 1 in
  let i = ref 0 in
  while row.(!i) <> fid do
    incr i
  done;
  Array.blit row (!i + 1) row !i (d - !i);
  t.deg.(c) <- d

let add_flow t ms =
  if Array.length ms = 0 then
    invalid_arg "Fair_share_inc.add_flow: flow with no constraint";
  Array.iter
    (fun c ->
      if c < 0 || c >= t.n_caps then
        invalid_arg "Fair_share_inc.add_flow: bad constraint index")
    ms;
  let fid =
    if t.n_free > 0 then begin
      t.n_free <- t.n_free - 1;
      t.free_fids.(t.n_free)
    end
    else begin
      let fid = t.n_slots in
      t.n_slots <- fid + 1;
      t.membership <- grown t.membership t.n_slots [||];
      t.active <- grown t.active t.n_slots false;
      t.rates <- grown t.rates t.n_slots 0.0;
      t.frozen <- grown t.frozen t.n_slots false;
      t.comp_flows <- grown t.comp_flows t.n_slots 0;
      t.flow_mark <- grown t.flow_mark t.n_slots 0;
      t.free_fids <- grown t.free_fids t.n_slots 0;
      fid
    end
  in
  t.membership.(fid) <- ms;
  t.active.(fid) <- true;
  t.rates.(fid) <- 0.0;
  for k = 0 to Array.length ms - 1 do
    insert_flow t ms.(k) fid;
    touch t ms.(k)
  done;
  fid

let remove_flow t fid =
  if fid < 0 || fid >= t.n_slots || not t.active.(fid) then
    invalid_arg "Fair_share_inc.remove_flow: inactive flow";
  let ms = t.membership.(fid) in
  for k = 0 to Array.length ms - 1 do
    delete_flow t ms.(k) fid;
    touch t ms.(k)
  done;
  t.membership.(fid) <- [||];
  t.active.(fid) <- false;
  t.rates.(fid) <- 0.0;
  t.free_fids.(t.n_free) <- fid;
  t.n_free <- t.n_free + 1

(* Breadth-first search of the exact connected component of constraint
   [c0] in the flow/constraint incidence graph: its cids land in
   [comp_caps.(0 .. n_comp_caps - 1)] (BFS order, [c0] first) and its
   active fids in [comp_flows].  Visits are stamped with [gen], so
   components explored under one generation are disjoint and a cid
   already reached is skipped by the caller. *)
let collect t gen c0 =
  t.cap_mark.(c0) <- gen;
  t.comp_caps.(0) <- c0;
  let nq = ref 1 and head = ref 0 and nf = ref 0 in
  while !head < !nq do
    let c = t.comp_caps.(!head) in
    incr head;
    let row = t.flows_of.(c) in
    for j = 0 to t.deg.(c) - 1 do
      let f = row.(j) in
      if t.flow_mark.(f) <> gen then begin
        t.flow_mark.(f) <- gen;
        t.comp_flows.(!nf) <- f;
        incr nf;
        let ms = t.membership.(f) in
        for k = 0 to Array.length ms - 1 do
          let c' = ms.(k) in
          if t.cap_mark.(c') <> gen then begin
            t.cap_mark.(c') <- gen;
            t.comp_caps.(!nq) <- c';
            incr nq
          end
        done
      end
    done
  done;
  t.n_comp_caps <- !nq;
  t.n_comp_flows <- !nf

(* Water-fill the component just [collect]ed from scratch.

   Bit-equality with the from-scratch oracle (test/fair_share.ml) rests
   on three properties that must not drift (test_sim's randomized suite
   pins them):
   - the bottleneck each round is the constraint with the smallest
     [remaining/unfrozen], ties to the LOWEST constraint index — the
     oracle scans cids in ascending order with strict [<]; the scan
     below visits the component in BFS order but minimizes (share, cid)
     lexicographically, which picks the same winner.  Water-filling
     decomposes over connected components, so the component's winner
     sequence is the oracle's restricted to it;
   - flows freeze in ascending fid order (the bottleneck's row is
     sorted), so each constraint sees the same float subtractions;
   - shares clamp at 0 exactly like the oracle ([Float.max 0.0]).

   [share.(c)] caches the oracle's [remaining/unfrozen] quotient and is
   re-divided only when a freeze changes one of its operands, so it is
   always the float the oracle would compute at scan time.

   The rounds use the oracle's direct min-scan rather than a priority
   queue: components are small (tens of constraints in the paper's
   platforms), where a heap's sift traffic costs more than rescanning a
   flat array (measured; see DESIGN.md §11). *)
let waterfill t =
  let nf = t.n_comp_flows in
  if nf > 0 then begin
    t.s_components <- t.s_components + 1;
    t.s_flows <- t.s_flows + nf;
    (* Live caps: the component's constraints some active flow crosses.
       Only [c0] can have none; it then cannot bottleneck anything. *)
    let live = ref 0 in
    for i = 0 to t.n_comp_caps - 1 do
      let c = t.comp_caps.(i) in
      let d = t.deg.(c) in
      if d > 0 then begin
        t.comp_caps.(!live) <- c;
        incr live;
        t.remaining.(c) <- t.caps.(c);
        t.unfrozen.(c) <- d;
        t.share.(c) <- t.caps.(c) /. float_of_int d
      end
    done;
    for i = 0 to nf - 1 do
      t.frozen.(t.comp_flows.(i)) <- false
    done;
    let n_frozen = ref 0 in
    while !n_frozen < nf do
      t.s_rounds <- t.s_rounds + 1;
      let best_c = ref (-1) in
      let best_share = ref infinity in
      (* Scan the still-constraining caps, swap-dropping exhausted
         ones.  The (share, cid) lexicographic minimum is
         order-independent, so the compaction cannot change the
         winner. *)
      let i = ref 0 in
      while !i < !live do
        let c = t.comp_caps.(!i) in
        if t.unfrozen.(c) = 0 then begin
          decr live;
          t.comp_caps.(!i) <- t.comp_caps.(!live);
          t.comp_caps.(!live) <- c
        end
        else begin
          let share = t.share.(c) in
          if share < !best_share || (share = !best_share && c < !best_c)
          then begin
            best_share := share;
            best_c := c
          end;
          incr i
        end
      done;
      assert (!best_c >= 0);
      let share = Float.max 0.0 !best_share in
      let bc = !best_c in
      (* Freeze the unfrozen flows crossing [bc] — exactly the flows
         the oracle's whole-set scan freezes this round — in ascending
         fid order.  Freezing one flow never freezes another, so
         walking the row while freezing sees the same set. *)
      let row = t.flows_of.(bc) in
      for j = 0 to t.deg.(bc) - 1 do
        let f = row.(j) in
        if not t.frozen.(f) then begin
          t.rates.(f) <- share;
          t.frozen.(f) <- true;
          incr n_frozen;
          let ms = t.membership.(f) in
          for k = 0 to Array.length ms - 1 do
            let c = ms.(k) in
            let r = Float.max 0.0 (t.remaining.(c) -. share) in
            let u = t.unfrozen.(c) - 1 in
            t.remaining.(c) <- r;
            t.unfrozen.(c) <- u;
            if u > 0 then t.share.(c) <- r /. float_of_int u
          done
        end
      done
    done
  end

let active_flows t =
  let fids = ref [] in
  for fid = t.n_slots - 1 downto 0 do
    if t.active.(fid) then fids := fid :: !fids
  done;
  !fids

let refresh t =
  if t.n_dirty > 0 then begin
    t.s_refreshes <- t.s_refreshes + 1;
    (* One generation for the whole refresh: a dirty cid already reached
       from an earlier one shares its component and is skipped.  Fill
       order across components is free to vary: distinct components
       share no constraint or flow, so their fills commute
       bit-for-bit. *)
    t.mark <- t.mark + 1;
    let gen = t.mark in
    for i = 0 to t.n_dirty - 1 do
      let c = t.dirty.(i) in
      t.is_dirty.(c) <- false;
      if t.cap_mark.(c) <> gen then begin
        collect t gen c;
        waterfill t
      end
    done;
    t.n_dirty <- 0
  end

let rate t fid =
  if fid < 0 || fid >= t.n_slots || not t.active.(fid) then
    invalid_arg "Fair_share_inc.rate: inactive flow";
  t.rates.(fid)

let n_slots t = t.n_slots
let rates_view t = t.rates
let active_view t = t.active

let components t =
  t.mark <- t.mark + 1;
  let gen = t.mark in
  let groups = ref [] in
  for c = 0 to t.n_caps - 1 do
    if t.cap_mark.(c) <> gen then begin
      collect t gen c;
      let g = Array.sub t.comp_caps 0 t.n_comp_caps in
      Array.sort compare g;
      groups := Array.to_list g :: !groups
    end
  done;
  List.rev !groups

let stats t =
  {
    refreshes = t.s_refreshes;
    components_recomputed = t.s_components;
    flows_recomputed = t.s_flows;
    rounds = t.s_rounds;
  }
