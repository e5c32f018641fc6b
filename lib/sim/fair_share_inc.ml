type stats = {
  refreshes : int;
  components_recomputed : int;
  routes_recomputed : int;
  flows_recomputed : int;
  rounds : int;
}

type t = {
  (* Constraints, dense and never recycled: index order is the
     tie-break order, so it must be stable across the kernel's
     lifetime. *)
  mutable caps : float array;
  mutable n_caps : int;
  (* Reverse incidence: the routes with at least one active flow that
     cross constraint [c] are [routes_of.(c).(0 .. deg.(c) - 1)], in no
     particular order (every flow frozen in a round gets the same
     share, so freeze order cannot move a float).  [load.(c)] counts
     the active flows behind them. *)
  mutable routes_of : int array array;
  mutable deg : int array;
  mutable load : int array;
  (* Routes, dense and never recycled.  [count.(r)] active flows run
     along [route_caps.(r)] and all of them get [rates.(r)]. *)
  mutable route_caps : int array array;
  mutable count : int array;
  mutable rates : float array;
  mutable frozen : bool array;  (* water-fill scratch *)
  mutable n_routes : int;
  (* Flows, indexed by fid.  Slots are reused LIFO so the arrays stay
     sized by the number of concurrently active flows, not the total
     ever started. *)
  mutable route_of : int array;
  mutable active : bool array;
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
  mutable unfrozen : int array;  (* by cid: flows, not routes *)
  mutable share : float array;  (* by cid: remaining / unfrozen *)
  mutable comp_caps : int array;  (* BFS queue, then the live caps *)
  mutable n_comp_caps : int;
  mutable comp_routes : int array;  (* component routes, any order *)
  mutable n_comp_routes : int;
  mutable route_mark : int array;  (* by route: generation stamp *)
  mutable cap_mark : int array;  (* by cid: generation stamp *)
  mutable mark : int;
  mutable s_refreshes : int;
  mutable s_components : int;
  mutable s_routes : int;
  mutable s_flows : int;
  mutable s_rounds : int;
}

let create () =
  {
    caps = [||];
    n_caps = 0;
    routes_of = [||];
    deg = [||];
    load = [||];
    route_caps = [||];
    count = [||];
    rates = [||];
    frozen = [||];
    n_routes = 0;
    route_of = [||];
    active = [||];
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
    comp_routes = [||];
    n_comp_routes = 0;
    route_mark = [||];
    cap_mark = [||];
    mark = 0;
    s_refreshes = 0;
    s_components = 0;
    s_routes = 0;
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
  t.routes_of <- grown t.routes_of t.n_caps [||];
  t.deg <- grown t.deg t.n_caps 0;
  t.load <- grown t.load t.n_caps 0;
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

let add_route t ms =
  let k = Array.length ms in
  if k = 0 then
    invalid_arg "Fair_share_inc.add_route: route with no constraint";
  for i = 0 to k - 1 do
    let c = ms.(i) in
    if c < 0 || c >= t.n_caps then
      invalid_arg "Fair_share_inc.add_route: bad constraint index";
    for j = 0 to i - 1 do
      if ms.(j) = c then
        invalid_arg "Fair_share_inc.add_route: repeated constraint index"
    done
  done;
  let rid = t.n_routes in
  t.n_routes <- rid + 1;
  t.route_caps <- grown t.route_caps t.n_routes [||];
  t.count <- grown t.count t.n_routes 0;
  t.rates <- grown t.rates t.n_routes 0.0;
  t.frozen <- grown t.frozen t.n_routes false;
  t.comp_routes <- grown t.comp_routes t.n_routes 0;
  t.route_mark <- grown t.route_mark t.n_routes 0;
  t.route_caps.(rid) <- ms;
  rid

let add_flow t rid =
  if rid < 0 || rid >= t.n_routes then
    invalid_arg "Fair_share_inc.add_flow: unknown route";
  let fid =
    if t.n_free > 0 then begin
      t.n_free <- t.n_free - 1;
      t.free_fids.(t.n_free)
    end
    else begin
      let fid = t.n_slots in
      t.n_slots <- fid + 1;
      t.route_of <- grown t.route_of t.n_slots 0;
      t.active <- grown t.active t.n_slots false;
      t.free_fids <- grown t.free_fids t.n_slots 0;
      fid
    end
  in
  t.route_of.(fid) <- rid;
  t.active.(fid) <- true;
  let n = t.count.(rid) + 1 in
  t.count.(rid) <- n;
  let ms = t.route_caps.(rid) in
  for k = 0 to Array.length ms - 1 do
    let c = ms.(k) in
    t.load.(c) <- t.load.(c) + 1;
    if n = 1 then begin
      let d = t.deg.(c) in
      let row = grown t.routes_of.(c) (d + 1) 0 in
      t.routes_of.(c) <- row;
      row.(d) <- rid;
      t.deg.(c) <- d + 1
    end;
    touch t c
  done;
  fid

let remove_flow t fid =
  if fid < 0 || fid >= t.n_slots || not t.active.(fid) then
    invalid_arg "Fair_share_inc.remove_flow: inactive flow";
  let rid = t.route_of.(fid) in
  let n = t.count.(rid) - 1 in
  t.count.(rid) <- n;
  let ms = t.route_caps.(rid) in
  for k = 0 to Array.length ms - 1 do
    let c = ms.(k) in
    t.load.(c) <- t.load.(c) - 1;
    if n = 0 then begin
      (* swap-remove: rows carry no order *)
      let row = t.routes_of.(c) in
      let d = t.deg.(c) - 1 in
      let i = ref 0 in
      while row.(!i) <> rid do
        incr i
      done;
      row.(!i) <- row.(d);
      t.deg.(c) <- d
    end;
    touch t c
  done;
  if n = 0 then t.rates.(rid) <- 0.0;
  t.active.(fid) <- false;
  t.free_fids.(t.n_free) <- fid;
  t.n_free <- t.n_free + 1

(* Breadth-first search of the exact connected component of constraint
   [c0] in the route/constraint incidence graph: its cids land in
   [comp_caps.(0 .. n_comp_caps - 1)] (BFS order, [c0] first) and its
   routes with an active flow in [comp_routes].  Visits are stamped
   with [gen], so components explored under one generation are disjoint
   and a cid already reached is skipped by the caller. *)
let collect t gen c0 =
  t.cap_mark.(c0) <- gen;
  t.comp_caps.(0) <- c0;
  let nq = ref 1 and head = ref 0 and nr = ref 0 in
  while !head < !nq do
    let c = t.comp_caps.(!head) in
    incr head;
    let row = t.routes_of.(c) in
    for j = 0 to t.deg.(c) - 1 do
      let r = row.(j) in
      if t.route_mark.(r) <> gen then begin
        t.route_mark.(r) <- gen;
        t.comp_routes.(!nr) <- r;
        incr nr;
        let ms = t.route_caps.(r) in
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
  t.n_comp_routes <- !nr

(* Water-fill the component just [collect]ed from scratch, one route at
   a time.

   Bit-equality with the from-scratch per-flow oracle
   (test/fair_share.ml) rests on three properties that must not drift
   (test_sim's randomized suite pins them):
   - the bottleneck each round is the constraint with the smallest
     [remaining/unfrozen], ties to the LOWEST constraint index — the
     oracle scans cids in ascending order with strict [<]; the scan
     below visits the component in BFS order but minimizes (share, cid)
     lexicographically, which picks the same winner.  Water-filling
     decomposes over connected components, so the component's winner
     sequence is the oracle's restricted to it;
   - every flow frozen in a round gets that round's share, so each
     constraint sees the same run of identical subtractions whatever
     the order.  A route stands for [count] flows: it subtracts the
     share [count] times, never [share *. count] (one rounding instead
     of [count] would drift from the oracle);
   - shares and remaining capacities clamp at 0 exactly like the
     oracle ([Float.max 0.0]).

   [share.(c)] caches the oracle's [remaining/unfrozen] quotient and is
   re-divided only when a freeze changes one of its operands, so it is
   always the float the oracle would compute at scan time.

   The rounds use the oracle's direct min-scan rather than a priority
   queue: components are small (tens of constraints in the paper's
   platforms), where a heap's sift traffic costs more than rescanning a
   flat array (measured; see DESIGN.md §11). *)
let waterfill t =
  let nr = t.n_comp_routes in
  if nr > 0 then begin
    t.s_components <- t.s_components + 1;
    t.s_routes <- t.s_routes + nr;
    (* Live caps: the component's constraints some active flow crosses.
       Only [c0] can have none; it then cannot bottleneck anything. *)
    let live = ref 0 in
    for i = 0 to t.n_comp_caps - 1 do
      let c = t.comp_caps.(i) in
      let n = t.load.(c) in
      if n > 0 then begin
        t.comp_caps.(!live) <- c;
        incr live;
        t.remaining.(c) <- t.caps.(c);
        t.unfrozen.(c) <- n;
        t.share.(c) <- t.caps.(c) /. float_of_int n
      end
    done;
    for i = 0 to nr - 1 do
      let r = t.comp_routes.(i) in
      t.frozen.(r) <- false;
      t.s_flows <- t.s_flows + t.count.(r)
    done;
    let n_frozen = ref 0 in
    while !n_frozen < nr do
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
      (* Freeze the unfrozen routes crossing [bc]: their flows are
         exactly the flows the oracle's whole-set scan freezes this
         round.  Freezing one route never freezes another, so walking
         the row while freezing sees the same set. *)
      let row = t.routes_of.(bc) in
      for j = 0 to t.deg.(bc) - 1 do
        let r = row.(j) in
        if not t.frozen.(r) then begin
          t.rates.(r) <- share;
          t.frozen.(r) <- true;
          incr n_frozen;
          let n = t.count.(r) in
          let ms = t.route_caps.(r) in
          for k = 0 to Array.length ms - 1 do
            let c = ms.(k) in
            let rem = ref t.remaining.(c) in
            for _ = 1 to n do
              rem := Float.max 0.0 (!rem -. share)
            done;
            let u = t.unfrozen.(c) - n in
            t.remaining.(c) <- !rem;
            t.unfrozen.(c) <- u;
            if u > 0 then t.share.(c) <- !rem /. float_of_int u
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
       share no constraint or route, so their fills commute
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
  t.rates.(t.route_of.(fid))

let n_slots t = t.n_slots
let rates_view t = t.rates
let route_view t = t.route_of
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
    routes_recomputed = t.s_routes;
    flows_recomputed = t.s_flows;
    rounds = t.s_rounds;
  }
