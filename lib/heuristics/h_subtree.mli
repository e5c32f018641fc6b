(** The Subtree-Bottom-Up operator-placement heuristic (paper §4.1) —
    the paper's overall winner — on an operator-graph view: one tree,
    or a DAG shared by several applications (Benoit et al.,
    multi-application follow-up, PAPERS.md).

    A node's depth is its longest path to a sink (its distance from the
    root on a tree).  Every al-operator (operator with at least one
    object leaf) gets its own most-expensive processor, deepest first,
    then by id.  Then merges bottom-up: each processor, deepest member
    first, repeatedly allocates the consumers of its operators to itself
    — adding an unassigned consumer directly, or absorbing the
    consumer's current processor wholesale and returning it to the
    store.  Rounds repeat until no processor grows.  Operators that
    could not be merged anywhere are placed in depth-first postorder
    from the roots over producers: each first tries its producers'
    processors, then buys a fresh most-expensive one with the iterative
    grouping fallback ({!Common.acquire_with_grouping}) and lets it
    absorb consumers.  A final consolidation folds small processors into
    others, smallest first, trying the processors it exchanges a stream
    with first. *)

type rules =
  | Tree
      (** The paper's rules: an al-operator that fits on no processor
          alone fails the placement; a leftover tries its producers'
          processors heaviest edge first, and a group it joins then
          absorbs its consumers. *)
  | Dag
      (** An al-node that fits on no processor alone is seeded through
          the grouping fallback; a leftover tries its producers'
          processors in group-id order, and joining one ends its
          step. *)
(** The three decisions on which the tree and DAG placers differ.  Each
    rule set reproduces its placer's committed solutions and benchmark
    fingerprints; the other one changes some of them. *)

val run :
  rules ->
  Insp_util.Prng.t ->
  Insp_tree.Graph.t ->
  Insp_platform.Platform.t ->
  (Builder.t, string) result

(* lint: allow t3 — oracle hook for test/test_heuristics.ml consolidate = list-based sweep *)
val consolidate : Builder.t -> unit
(** The final consolidation {!run} ends with: until no merge succeeds,
    each group, fewest members first (ties in acquisition order), tries
    to be absorbed ({!Builder.try_absorb}) by the groups it exchanges a
    stream with, then by the others, each in acquisition order, and the
    sweep restarts after every merge.  Candidates whose merged compute
    load overflows the winner's CPU are skipped without a probe.  The
    size order is built once and updated on each merge; the adjacent
    winners are read from the loser's ledger flow row
    ({!Insp_mapping.Ledger.neighbours}) and the others from a spare-CPU
    index over the groups, so a sweep reaches only the candidates that
    can fit. *)
