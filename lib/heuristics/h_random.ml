module Prng = Insp_util.Prng

let run rng g platform =
  let b = Builder.create g platform in
  let spend = Common.round_budget b in
  let rec loop () =
    match Builder.unassigned b with
    | [] -> Ok b
    | pending ->
      if not (spend ()) then Common.not_converged
      else (
        let op = Prng.choose_list rng pending in
        match Common.acquire_with_grouping b ~style:`Cheapest op with
        | Ok _ -> loop ()
        | Error e -> Error e)
  in
  loop ()
