# Development entry points. `make check` is the PR gate: everything
# builds, every test passes, and formatting is clean.

.PHONY: all build test fmt fmt-apply fuzz-smoke trace-smoke examples-smoke suite-identity stats-identity fuzz-identity difftest-identity perfbench-smoke check bench clean

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

# every example runs to completion, and the stateful ones still find
# their seeded bugs: SMTP's aiosmtpd bug, and a root cause in each of
# the two quirky TCP stacks
examples-smoke:
	@for ex in quickstart dns_bughunt bgp_policy; do \
	  dune exec examples/$$ex.exe > /dev/null \
	    || { echo "examples-smoke: $$ex exited non-zero"; exit 1; }; \
	done
	@out=$$(dune exec examples/smtp_stateful.exe) \
	  || { echo "examples-smoke: smtp_stateful exited non-zero"; exit 1; }; \
	echo "$$out" | grep -q "Found the Table 3 aiosmtpd bug" \
	  || { echo "examples-smoke: smtp_stateful missed the aiosmtpd bug"; exit 1; }
	@out=$$(dune exec examples/tcp_extension.exe) \
	  || { echo "examples-smoke: tcp_extension exited non-zero"; exit 1; }; \
	causes=$$(echo "$$out" | sed -n '/^root causes:/,/^$$/p'); \
	for stack in fastopend quietstack; do \
	  echo "$$causes" | grep -q "^  $$stack " \
	    || { echo "examples-smoke: tcp_extension found no root cause in $$stack"; exit 1; }; \
	done
	@echo "examples-smoke: all five examples ran and found their bugs"

# every model's k=3 suite is byte-identical to the one recorded in
# test/golden/suites-k3.md5 (one "md5  MODEL" line per model): a change
# that must not move any generated test keeps this passing. Regenerate
# the file only for a change that means to alter suites, and say why.
suite-identity:
	rm -rf /tmp/eywa-suite-identity && mkdir -p /tmp/eywa-suite-identity
	@status=0; \
	while read sum model; do \
	  dune exec bin/eywa_cli.exe -- run $$model -k 3 --jobs 2 \
	    --save /tmp/eywa-suite-identity/$$model.suite > /dev/null || exit 1; \
	  got=$$(md5sum < /tmp/eywa-suite-identity/$$model.suite | cut -d' ' -f1); \
	  if [ "$$got" != "$$sum" ]; then \
	    echo "suite-identity: $$model suite differs from test/golden/suites-k3.md5"; \
	    status=1; \
	  fi; \
	done < test/golden/suites-k3.md5; \
	[ $$status -eq 0 ] && echo "suite-identity: all $$(wc -l < test/golden/suites-k3.md5) suites byte-identical"; \
	exit $$status

# every model's k=3 pipeline counters are byte-identical to the MD5s
# in test/golden/stats-k3.md5 (one "md5  MODEL" line per model): `eywa
# stats M -k 3 --jobs 2 --json` with its wall-clock `*_seconds` lines
# dropped, which pins solver_calls, solver_decisions, symex_ticks and
# model_reuses where suite-identity pins only the tests. A change that
# must not move the search keeps this passing.
stats-identity:
	rm -rf /tmp/eywa-stats-identity && mkdir -p /tmp/eywa-stats-identity
	@status=0; \
	while read sum model; do \
	  out=/tmp/eywa-stats-identity/$$model.json; \
	  dune exec bin/eywa_cli.exe -- stats $$model -k 3 --jobs 2 --json \
	    > $$out || exit 1; \
	  got=$$(grep -v _seconds $$out | md5sum | cut -d' ' -f1); \
	  if [ "$$got" != "$$sum" ]; then \
	    echo "stats-identity: $$model stats differ from test/golden/stats-k3.md5"; \
	    status=1; \
	  fi; \
	done < test/golden/stats-k3.md5; \
	[ $$status -eq 0 ] && echo "stats-identity: all $$(wc -l < test/golden/stats-k3.md5) stats byte-identical"; \
	exit $$status

# every model's k=3 fuzz run is byte-identical to the MD5s in
# test/golden/fuzz-k3.md5 (one "md5  MODEL" line per model): the stdout
# of `eywa fuzz M -k 3 --jobs 2 --save F` followed by F, the combined
# symex+fuzz suite. suite-identity pins only the symex suites; a change
# to the fuzz loop that must not move a keeper or an exec count keeps
# this passing.
fuzz-identity:
	rm -rf /tmp/eywa-fuzz-identity && mkdir -p /tmp/eywa-fuzz-identity
	@status=0; \
	while read sum model; do \
	  dir=/tmp/eywa-fuzz-identity; \
	  dune exec bin/eywa_cli.exe -- fuzz $$model -k 3 --jobs 2 \
	    --save $$dir/$$model.suite > $$dir/$$model.out || exit 1; \
	  got=$$(cat $$dir/$$model.out $$dir/$$model.suite | md5sum | cut -d' ' -f1); \
	  if [ "$$got" != "$$sum" ]; then \
	    echo "fuzz-identity: $$model fuzz run differs from test/golden/fuzz-k3.md5"; \
	    status=1; \
	  fi; \
	done < test/golden/fuzz-k3.md5; \
	[ $$status -eq 0 ] && echo "fuzz-identity: all $$(wc -l < test/golden/fuzz-k3.md5) fuzz runs byte-identical"; \
	exit $$status

# differential testing and attribution print byte-identical output to
# the MD5s in test/golden/difftest-k3.md5 (one "md5  COMMAND MODEL" line
# each): `eywa difftest M -k 3` for the 13 models and TCP, and `eywa
# report M -k 3` for the DNS models, at --jobs 1 and --jobs 4. `bench
# table3 fast` (its `total bench time` line dropped) is pinned too, by
# test/golden/table3-fast.md5: of the outputs pinned here only it attributes
# the suites of several models in a single call. A change to how tests
# are served or attributed must keep this passing.
difftest-identity:
	rm -rf /tmp/eywa-difftest-identity && mkdir -p /tmp/eywa-difftest-identity
	@status=0; \
	for jobs in 1 4; do \
	  while read sum cmd model; do \
	    out=/tmp/eywa-difftest-identity/$$cmd-$$model-j$$jobs.txt; \
	    dune exec bin/eywa_cli.exe -- $$cmd $$model -k 3 --jobs $$jobs \
	      > $$out || exit 1; \
	    got=$$(md5sum < $$out | cut -d' ' -f1); \
	    if [ "$$got" != "$$sum" ]; then \
	      echo "difftest-identity: $$cmd $$model --jobs $$jobs differs from test/golden/difftest-k3.md5"; \
	      status=1; \
	    fi; \
	  done < test/golden/difftest-k3.md5; \
	  out=/tmp/eywa-difftest-identity/table3-j$$jobs.txt; \
	  dune exec bench/main.exe -- table3 fast --jobs $$jobs > $$out || exit 1; \
	  got=$$(grep -v 'total bench time' $$out | md5sum | cut -d' ' -f1); \
	  if [ "$$got" != "$$(cut -d' ' -f1 test/golden/table3-fast.md5)" ]; then \
	    echo "difftest-identity: bench table3 --jobs $$jobs differs from test/golden/table3-fast.md5"; \
	    status=1; \
	  fi; \
	done; \
	[ $$status -eq 0 ] && echo "difftest-identity: all $$(wc -l < test/golden/difftest-k3.md5) outputs and bench table3 byte-identical at --jobs 1 and 4"; \
	exit $$status

# the tracked pipeline benchmark's self-test: builds it from source,
# runs every workload at a tiny size and checks BENCHMARK.json against
# its spec
perfbench-smoke:
	bash perfbench/run.sh --smoke

check: build test fuzz-smoke trace-smoke examples-smoke suite-identity stats-identity fuzz-identity difftest-identity perfbench-smoke fmt

bench:
	dune exec bench/main.exe -- fast

clean:
	dune clean
