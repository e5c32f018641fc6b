module Obs = Insp_obs.Obs

type relation = Le | Eq | Ge

type constr = { coeffs : float array; relation : relation; bound : float }

type problem = {
  objective : float array;
  constraints : constr list;
  maximize : bool;
}

type solution = { values : float array; objective_value : float }

type outcome = Optimal of solution | Infeasible | Unbounded

let tolerance = 1e-9

(* Mutable tableau: rows 0..m-1 are constraints, row m is the objective
   (reduced costs), column [cols] is the right-hand side. *)
type tableau = {
  a : float array array;  (* (m+1) x (cols+1) *)
  basis : int array;  (* m entries: which column is basic in each row *)
  m : int;
  cols : int;
}

let pivot t ~row ~col =
  Obs.incr "lp.simplex.pivot";
  let piv = t.a.(row).(col) in
  let r = t.a.(row) in
  for j = 0 to t.cols do
    r.(j) <- r.(j) /. piv
  done;
  for i = 0 to t.m do
    if i <> row then begin
      let factor = t.a.(i).(col) in
      if Float.abs factor > 0.0 then begin
        let ri = t.a.(i) in
        for j = 0 to t.cols do
          ri.(j) <- ri.(j) -. (factor *. r.(j))
        done
      end
    end
  done;
  t.basis.(row) <- col

(* Bland's rule: entering = lowest-index column with a negative reduced
   cost; leaving = min-ratio row, ties broken by lowest basis index. *)
let rec iterate ?(allowed = fun _ -> true) t =
  let obj = t.a.(t.m) in
  let entering = ref (-1) in
  (try
     for j = 0 to t.cols - 1 do
       if allowed j && obj.(j) < -.tolerance then begin
         entering := j;
         raise Exit
       end
     done
   with Exit -> ());
  if !entering < 0 then `Optimal
  else begin
    let col = !entering in
    let best_row = ref (-1) in
    let best_ratio = ref infinity in
    for i = 0 to t.m - 1 do
      let aij = t.a.(i).(col) in
      if aij > tolerance then begin
        let ratio = t.a.(i).(t.cols) /. aij in
        if
          ratio < !best_ratio -. tolerance
          || (Float.abs (ratio -. !best_ratio) <= tolerance
             && !best_row >= 0
             && t.basis.(i) < t.basis.(!best_row))
        then begin
          best_row := i;
          best_ratio := ratio
        end
      end
    done;
    if !best_row < 0 then `Unbounded
    else begin
      pivot t ~row:!best_row ~col;
      iterate ~allowed t
    end
  end

let solve problem =
  Obs.incr "lp.simplex.solve";
  let n = Array.length problem.objective in
  List.iter
    (fun c ->
      if Array.length c.coeffs <> n then
        invalid_arg "Simplex.solve: ragged constraint row")
    problem.constraints;
  let constraints =
    (* Normalise to non-negative right-hand sides. *)
    List.map
      (fun c ->
        if c.bound < 0.0 then
          {
            coeffs = Array.map (fun x -> -.x) c.coeffs;
            bound = -.c.bound;
            relation =
              (match c.relation with Le -> Ge | Ge -> Le | Eq -> Eq);
          }
        else c)
      problem.constraints
  in
  let m = List.length constraints in
  let n_slack =
    List.length
      (List.filter (fun c -> c.relation <> Eq) constraints)
  in
  let n_artificial =
    List.length (List.filter (fun c -> c.relation <> Le) constraints)
  in
  let cols = n + n_slack + n_artificial in
  let a = Array.make_matrix (m + 1) (cols + 1) 0.0 in
  let basis = Array.make m (-1) in
  let slack_base = n in
  let artificial_base = n + n_slack in
  let next_slack = ref 0 in
  let next_artificial = ref 0 in
  List.iteri
    (fun i c ->
      Array.blit c.coeffs 0 a.(i) 0 n;
      a.(i).(cols) <- c.bound;
      (match c.relation with
      | Le ->
        let s = slack_base + !next_slack in
        incr next_slack;
        a.(i).(s) <- 1.0;
        basis.(i) <- s
      | Ge ->
        let s = slack_base + !next_slack in
        incr next_slack;
        a.(i).(s) <- -1.0;
        let art = artificial_base + !next_artificial in
        incr next_artificial;
        a.(i).(art) <- 1.0;
        basis.(i) <- art
      | Eq ->
        let art = artificial_base + !next_artificial in
        incr next_artificial;
        a.(i).(art) <- 1.0;
        basis.(i) <- art))
    constraints;
  let t = { a; basis; m; cols } in
  (* Phase 1: minimise the sum of artificial variables. *)
  let outcome_phase1 =
    if n_artificial = 0 then `Optimal
    else begin
      for j = artificial_base to cols - 1 do
        t.a.(m).(j) <- 1.0
      done;
      (* Price out the artificial basics. *)
      for i = 0 to m - 1 do
        if t.basis.(i) >= artificial_base then
          for j = 0 to cols do
            t.a.(m).(j) <- t.a.(m).(j) -. t.a.(i).(j)
          done
      done;
      iterate t
    end
  in
  match outcome_phase1 with
  | `Unbounded -> Infeasible (* phase 1 is bounded below by 0 *)
  | `Optimal ->
    let phase1_value = -.t.a.(m).(cols) in
    if n_artificial > 0 && phase1_value > 1e-6 then Infeasible
    else begin
      (* Drive any residual artificial variables out of the basis. *)
      for i = 0 to m - 1 do
        if t.basis.(i) >= artificial_base then begin
          let found = ref (-1) in
          (try
             for j = 0 to artificial_base - 1 do
               if Float.abs t.a.(i).(j) > 1e-7 then begin
                 found := j;
                 raise Exit
               end
             done
           with Exit -> ());
          if !found >= 0 then pivot t ~row:i ~col:!found
          (* else the row is redundant; harmless to keep *)
        end
      done;
      (* Phase 2 objective. *)
      let sign = if problem.maximize then -1.0 else 1.0 in
      for j = 0 to cols do
        t.a.(m).(j) <- 0.0
      done;
      for j = 0 to n - 1 do
        t.a.(m).(j) <- sign *. problem.objective.(j)
      done;
      for i = 0 to m - 1 do
        let b = t.basis.(i) in
        if b < n then begin
          let cost = sign *. problem.objective.(b) in
          if Float.abs cost > 0.0 then
            for j = 0 to cols do
              t.a.(m).(j) <- t.a.(m).(j) -. (cost *. t.a.(i).(j))
            done
        end
      done;
      let allowed j = j < artificial_base in
      match iterate ~allowed t with
      | `Unbounded -> Unbounded
      | `Optimal ->
        let values = Array.make n 0.0 in
        for i = 0 to m - 1 do
          if t.basis.(i) < n then values.(t.basis.(i)) <- t.a.(i).(cols)
        done;
        let objective_value =
          Array.to_list values
          |> List.mapi (fun j v -> problem.objective.(j) *. v)
          |> List.fold_left ( +. ) 0.0
        in
        Optimal { values; objective_value }
    end
