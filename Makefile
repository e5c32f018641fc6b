# Development entry points.  `make check` is the tier-1 gate.

.PHONY: check build test bench bench-json bench-compare lint lint-quick lint-deep prof loc clean

check:
	dune build && dune runtest && $(MAKE) lint

build:
	dune build

test:
	dune runtest

# Static analysis (DESIGN.md §9): determinism & float-hygiene rules
# D1-D6, F1, P1, P2 over the whole tree.  `lint-quick` restricts to
# files changed or untracked per `git status --porcelain`.
lint:
	dune build bin/insp_lint.exe
	dune exec bin/insp_lint.exe -- --baseline lint.baseline lib bin bench test

lint-quick:
	dune build bin/insp_lint.exe
	dune exec bin/insp_lint.exe -- --baseline lint.baseline --quick lib bin bench test

# Whole-program pass (DESIGN.md §14): builds the typedtrees first, then
# runs T1 (static races), T2 (determinism taint) and T3 (dead exports)
# on top of the per-file rules.  Without a fresh build the driver exits
# 2 with a diagnostic pointing back here.
lint-deep:
	dune build @check bin/insp_lint.exe
	dune exec bin/insp_lint.exe -- --deep --cmt-root _build/default --baseline lint.baseline lib bin bench test

bench:
	dune exec bench/main.exe -- --quick

# Machine-readable benchmark summary (wall time + headline counters per
# experiment), for trend tracking across commits.
bench-json:
	dune exec bench/main.exe -- --quick --json BENCH_insp.json

# Regenerate the quick summary into a scratch file (git-ignored) and
# diff it against the committed BENCH_insp.json: wall-time deltas plus
# any counter/gauge drift.  Advisory; add --strict to fail on drift.
bench-compare:
	dune exec bench/main.exe -- --quick --json BENCH_insp.current.json
	dune exec bench/compare.exe -- BENCH_insp.json BENCH_insp.current.json

# Allocation profile of the scale preset (the scale.10k bench row):
# writes prof.report / prof.csv / prof.{alloc,time}.folded under
# _build/prof/.  Feed the .folded files to any folded-stack flamegraph
# renderer (e.g. flamegraph.pl or speedscope).
prof:
	dune build bin/insp_cli.exe
	mkdir -p _build/prof
	dune exec bin/insp_cli.exe -- solve --scale -n 10000 -H comp --seed 1 --profile _build/prof/prof

# Total line count of the library sources (lib/**/*.ml and *.mli), the
# size figure tracked next to the bench rows, then the same count for
# test/ on a second line, so code moved from lib/ into a test oracle
# shows up as moved rather than as a reduction.  The third line counts
# the optional parameters declared in lib/**/*.mli: the library's
# settings, each of which multiplies the configurations tests must cover.
# The fourth counts the `App.t` mentions in lib/**/*.mli outside the
# modules that build applications (lib/tree, lib/workload, lib/multi):
# the interfaces still to port to the operator-graph view.
loc:
	@find lib \( -name '*.ml' -o -name '*.mli' \) -print0 | xargs -0 cat | wc -l
	@find test \( -name '*.ml' -o -name '*.mli' \) -print0 | xargs -0 cat | wc -l
	@grep -rno "?[a-z_]\+:" lib --include=*.mli | wc -l
	@grep -rno "App\.t\b" lib --include=*.mli --exclude-dir=tree \
	  --exclude-dir=workload --exclude-dir=multi | wc -l

clean:
	dune clean
