# Convenience targets over dune. `make bench-json` is the perf gate:
# it regenerates BENCH_PR10.json and fails (exit 1) if parallel
# verdicts diverge from cached sequential ones, the summaries-ablation
# speedup regresses below its seed-commit floor, certificate checking
# costs more than 10% over the uncertified re-verification, span
# recording costs more than 5%, the store-backed incremental
# cross-version re-verify is less than 10x faster than cold (or its
# verdict fingerprint drifts), store bookkeeping costs more than 10%
# over a storeless run, or the 200-plan chaos
# soak reports a soundness violation, or the wire probe's malformed
# loadgen leg crashes the serve loop (any escaped exception or decoder
# barrier firing), or the observability stack (sampled query log +
# rolling SLO windows + a scraped stats endpoint, all ON) costs more
# than 5% wall or exact-p99 over serving with it all OFF, or any
# observability arm's reply fingerprint differs from the OFF arm's —
# including the Obsv_sink_fail arm, where every append is suppressed
# (the checks live in bench/main.ml's json target).
# `make lint` runs the abstract-interpretation linter over every
# bundled engine version against the checked-in baseline. `make
# verdicts` is the verdict pin: it re-verifies every bundled engine
# version on the reference zone (all seven query types, layers on) and
# diffs the output, timing stripped, against
# test/golden/verdicts_reference_zone.txt. `make chaos` is the
# standalone soak via the CLI; `make trace` records a
# verification trace and renders it. `make fuzz` is the seeded
# solver-fuzz smoke battery (random CNFs, LIA conjunctions and
# DPLL(T) terms, judged by a brute-force reference evaluator and the
# independent certificate checker); `make fuzz-wire` is its RFC 1035
# decoder twin (every typed guard must fire, nothing may escape).
# `make serve` runs a UDP authoritative loop on port 5300; `make
# loadgen` fires the default mixed load (10% malformed) at it.

.PHONY: all build check test lint verdicts bench bench-json fuzz \
	fuzz-wire serve loadgen chaos trace clean

all: build

build:
	dune build

check:
	dune build @check

test:
	dune runtest

lint:
	dune exec bin/dnsv_cli.exe -- lint --baseline lint_baseline.json

VERSIONS = 1.0 2.0 3.0 dev 1.0-fixed 2.0-fixed 3.0-fixed dev-fixed

# verify exits 0 (proved) or 1 (refuted) on every pinned version;
# anything else is a failure before the diff is even looked at.
verdicts:
	dune build bin/dnsv_cli.exe
	@rm -f verdicts.raw
	@for v in $(VERSIONS); do \
	  ./_build/default/bin/dnsv_cli.exe verify -e $$v \
	    -t A,AAAA,NS,CNAME,SOA,MX,TXT >> verdicts.raw; \
	  rc=$$?; \
	  if [ $$rc -gt 1 ]; then echo "verify -e $$v exited $$rc"; exit 1; fi; \
	done
	sed -E 's/ \([0-9]+\.[0-9]+s\)//' verdicts.raw \
	  | diff test/golden/verdicts_reference_zone.txt -

bench:
	dune exec bench/main.exe

bench-json:
	dune exec bench/main.exe -- json > BENCH_PR10.json
	@cat BENCH_PR10.json
	@echo

fuzz:
	dune exec test/fuzz_solver.exe -- 2000

fuzz-wire:
	dune exec test/fuzz_wire.exe -- 5000

serve:
	dune exec bin/dnsv_cli.exe -- serve --port 5300

loadgen:
	dune exec bin/dnsv_cli.exe -- loadgen --port 5300

chaos:
	dune exec bin/dnsv_cli.exe -- chaos --plans 200 --seed 1

trace:
	dune exec bin/dnsv_cli.exe -- verify --trace trace.json
	dune exec bin/dnsv_cli.exe -- report trace.json --validate-layers

clean:
	dune clean
