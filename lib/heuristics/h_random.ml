module Prng = Insp_util.Prng
module App = Insp_tree.App
module Graph = Insp_tree.Graph

let run rng app platform =
  let b = Builder.create (Graph.of_app app) platform in
  (* The grouping fallback can sell a processor and release its
     operators, so bound the number of rounds to guarantee
     termination. *)
  let budget = ref ((App.n_operators app * App.n_operators app) + 16) in
  let rec loop () =
    match Builder.unassigned b with
    | [] -> Ok b
    | pending ->
      decr budget;
      if !budget <= 0 then
        Error "placement did not converge (grouping fallback oscillates)"
      else (
        let op = Prng.choose_list rng pending in
        match Common.acquire_with_grouping b ~style:`Cheapest op with
        | Ok _ -> loop ()
        | Error e -> Error e)
  in
  loop ()
