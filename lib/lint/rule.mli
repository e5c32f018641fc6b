(** The rule catalog of [insp_lint] and its finding type.

    Each rule guards one of the determinism / float-hygiene disciplines
    the reproduction depends on (DESIGN.md §9): bit-reproducible seeded
    runs and the ledger/oracle float contract.  Rules are identified by
    a short id ([D1] … [P2]) that is also the token accepted by the
    suppression syntax ([[@lint.allow "d2"]] or [(* lint: allow d2 *)]). *)

type t =
  | D1  (** no [Stdlib.Random] outside [lib/util] PRNG internals *)
  | D2  (** Hashtbl iteration feeding a list must be canonicalized *)
  | D3  (** no wall-clock reads ([Sys.time], [Unix.gettimeofday]) outside [bench/] *)
  | D4  (** no [Domain.spawn] outside [lib/experiments/par_sweep.ml] *)
  | D5
      (** no direct printing ([print_*], [Printf.printf], [Format.printf])
          in the engine libraries [lib/heuristics], [lib/lp], [lib/sim] —
          decision output goes through [Obs.Journal] *)
  | D6
      (** no unsorted [Hashtbl.fold]/[iter]/[to_seq] in the engine
          libraries [lib/mapping], [lib/heuristics], [lib/lp], [lib/sim],
          [lib/serve], [lib/faults] — even an order-insensitive-looking fold (a float
          sum) changes observable bits with hash order; iterate a
          key-sorted snapshot instead.  Strictly stronger than [D2]
          inside that scope (and reported instead of it). *)
  | D7
      (** no [Gc.*] reads in library code — only the allocation
          profiler [lib/obs/prof.ml] may sample GC state; engines
          wanting attribution bracket work with
          [Obs.prof_enter]/[Obs.prof_exit] (same shape as [D3]'s
          clock sanction) *)
  | F1  (** no [=]/[<>]/polymorphic [compare] on float literals or known float fields *)
  | P1  (** no partial stdlib calls ([List.hd], [List.nth], [Option.get]) in [lib/] *)
  | P2  (** every [lib/**/*.ml] has a matching [.mli] *)
  | P3
      (** no linear list search ([List.assoc]/[List.find] families) in
          the hot-path libraries [lib/{mapping,heuristics,sim}] — the
          100k-operator data path indexes by dense int id (arena/SoA
          columns); a bounded scan (catalog, heuristic registry,
          O(degree) probe deltas) is kept with
          [(* lint: allow p3 — reason *)] *)
  | T1
      (** {e typedtree, whole-program}: no [Domain.spawn] closure may
          transitively reach top-level mutable state (refs, arrays,
          [Hashtbl]s, mutable record fields) — workers sharing a global
          is a data race the per-file rules cannot see (DESIGN.md §14) *)
  | T2
      (** {e typedtree, whole-program}: no engine-library entry point
          ([.mli]-exported value of [lib/{mapping,heuristics,lp,sim,
          serve,faults}]) may transitively reach a nondeterministic primitive —
          hash-order iteration, [Stdlib.Random], a wall-clock read.
          The semantic, interprocedural closure of D1/D3/D6. *)
  | T3
      (** {e typedtree, whole-program}: every [.mli]-declared value under
          [lib/] must be referenced from at least one other non-test
          compilation unit (lib, bin, bench, perfbench and examples
          count; [test/] does not) *)

val all : t list
(** In report order: D1, D2, D3, D4, D5, D6, D7, F1, P1, P2, P3, T1,
    T2, T3. *)

val id : t -> string
(** Upper-case id, e.g. ["D2"]. *)

val of_string : string -> t option
(** Case-insensitive; trims whitespace.  ["d2"] and ["D2"] both work. *)

val synopsis : t -> string
(** One-line description used by [--help] and DESIGN.md. *)

type finding = {
  rule : t;
  file : string;  (** repo-relative path as reported *)
  line : int;  (** 1-based *)
  col : int;  (** 0-based, matching compiler diagnostics *)
  message : string;
}

val compare_finding : finding -> finding -> int
(** Report order: file, then line, then column, then rule id. *)

val pp_text : Format.formatter -> finding -> unit
(** [file:line:col: [RULE] message] — the golden format tested in
    [test/test_lint.ml]. *)

val pp_csv : Format.formatter -> finding -> unit
(** One CSV record [rule,file,line,col,message] with RFC-4180 quoting. *)

val csv_header : string

val pp_json : Format.formatter -> finding -> unit

val baseline_key : finding -> string
(** Stable key used by the baseline file: ["RULE file:line:col"]. *)
