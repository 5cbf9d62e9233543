# Development entry points. `make check` is the PR gate: everything
# builds, every test passes, and formatting is clean.

.PHONY: all build test fmt fmt-apply fuzz-smoke trace-smoke perfbench-smoke check bench clean

all: build

build:
	dune build @all

test:
	dune runtest

# dune's @fmt covers dune files (always available); OCaml sources are
# checked only when ocamlformat is installed, since the container
# image does not bake it in.
fmt:
	dune build @fmt
	@if command -v ocamlformat >/dev/null 2>&1; then \
	  echo "checking OCaml formatting"; \
	  dune build @fmt --auto-promote 2>/dev/null || true; \
	  git diff --exit-code -- '*.ml' '*.mli'; \
	else \
	  echo "ocamlformat not installed; skipping OCaml source check"; \
	fi

fmt-apply:
	dune build @fmt --auto-promote || true

# smoke-scale run of the bench fuzz stage: fails if the combined
# symex+fuzz suite stops strictly increasing edge coverage somewhere
fuzz-smoke:
	dune exec bench/main.exe -- fast fuzz --fuzz-json /tmp/eywa-fuzz-smoke.json
	@grep -q '"any_strict_increase": true' /tmp/eywa-fuzz-smoke.json \
	  || { echo "fuzz-smoke: no model gained edge coverage"; exit 1; }

# PR4 smoke: the wall-clock-stripped trace of a run is byte-identical
# at jobs=1 on a cold cache vs jobs=4 on the warm cache (`eywa trace`
# also checks well-formedness and the JSONL round-trip on the way),
# and the stats/bench JSON artifacts round-trip the canonical printer
trace-smoke:
	rm -rf /tmp/eywa-trace-smoke && mkdir -p /tmp/eywa-trace-smoke
	dune exec bin/eywa_cli.exe -- run RR -k 3 --timeout 5 --jobs 1 \
	  --cache-dir /tmp/eywa-trace-smoke/cache \
	  --trace-out /tmp/eywa-trace-smoke/t1.jsonl > /dev/null
	dune exec bin/eywa_cli.exe -- run RR -k 3 --timeout 5 --jobs 4 \
	  --cache-dir /tmp/eywa-trace-smoke/cache \
	  --trace-out /tmp/eywa-trace-smoke/t2.jsonl > /dev/null
	dune exec bin/eywa_cli.exe -- trace /tmp/eywa-trace-smoke/t1.jsonl \
	  --strip-wall --out /tmp/eywa-trace-smoke/s1.jsonl
	dune exec bin/eywa_cli.exe -- trace /tmp/eywa-trace-smoke/t2.jsonl \
	  --strip-wall --out /tmp/eywa-trace-smoke/s2.jsonl
	@cmp /tmp/eywa-trace-smoke/s1.jsonl /tmp/eywa-trace-smoke/s2.jsonl \
	  || { echo "trace-smoke: stripped traces differ across jobs/cache"; exit 1; }
	@echo "trace-smoke: stripped traces byte-identical"
	dune exec bin/eywa_cli.exe -- stats RR -k 3 --timeout 5 --json \
	  > /tmp/eywa-trace-smoke/stats.json
	dune exec bin/eywa_cli.exe -- trace --json /tmp/eywa-trace-smoke/stats.json
	dune exec bench/main.exe -- fast table1 \
	  --summary-json /tmp/eywa-trace-smoke/summary.json > /dev/null
	dune exec bin/eywa_cli.exe -- trace --json /tmp/eywa-trace-smoke/summary.json

# the tracked pipeline benchmark's self-test: builds it from source,
# runs every workload at a tiny size and checks BENCHMARK.json against
# its spec
perfbench-smoke:
	bash perfbench/run.sh --smoke

check: build test fuzz-smoke trace-smoke perfbench-smoke fmt

bench:
	dune exec bench/main.exe -- fast

clean:
	dune clean
