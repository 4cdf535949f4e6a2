GO ?= go

.PHONY: build test check race race-runner simdebug fuzz fuzz-smoke soak figures figures-full fmt bench benchmark allocsites lint lint-json loc reach

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The CI gate: static analysis, the virtual-time lint, and the full suite
# under the race detector (the chaosnet, relay, and lan tests all exercise
# real concurrency).
check: lint
	$(GO) test -race -timeout 50m ./...

# Static analysis: go vet plus the repo's own analyzer suite (internal/lint,
# driven by cmd/lint) — wallclock (no wall-clock reads in packages carrying
# the lint:virtual-time pragma), rawrand (no math/rand import outside tests,
# no ad-hoc seed arithmetic in rng.New), maporder (no map-iteration-ordered output),
# orphangoroutine (no uncoordinated goroutines in the live-concurrency
# packages), and errdrop (no silently dropped write/encode errors on the
# wire/relay/obs output paths). Non-zero exit on any unsuppressed finding.
# See DESIGN.md §12.
lint:
	$(GO) vet ./...
	$(GO) run ./cmd/lint

# Machine-readable findings (CI uploads this as an artifact).
lint-json:
	$(GO) run ./cmd/lint -json > lint.json

# Code size, as ROADMAP and the simplicity entries of CHANGES.md quote it:
# non-test Go lines per internal package, in all (outside bench/, which is
# the benchmark's own module), the *_test.go lines outside bench/, and the
# internal package count.
loc:
	@count() { find "$$@" -name '*.go' ! -name '*_test.go' -print0 | xargs -0 cat | wc -l; }; \
	outside='. ( -path ./bench -o -path ./.bench_build ) -prune -o'; \
	for d in internal/*/; do printf '%7d  %s\n' $$(count $$d) $$d; done; \
	printf '%7d  non-test Go lines outside bench/\n' $$(count $$outside); \
	printf '%7d  test Go lines outside bench/\n' $$(find $$outside -name '*_test.go' -print0 | xargs -0 cat | wc -l); \
	printf '%7d  internal packages\n' $$($(GO) list ./internal/... | wc -l)

# Reachability: which internal functions and methods a program links, as
# opposed to only its tests. Builds the 10 programs (cmd/*, examples/*, and
# the benchmark program in bench/) with inlining off, since an inlined callee
# leaves no symbol, and writes the sorted names of the text symbols under
# incastproxy/internal/ that any of them links to reach.txt. The root façade
# (api.go) counts as reached only through a program. Generic functions carry
# shape suffixes, so search them by prefix.
reach:
	@ops=5; dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; \
	for p in ./cmd/* ./examples/*; do $(GO) build -gcflags=all=-l -o "$$dir/$${p##*/}" $$p || exit 1; done; \
	(cd bench && $(GO) build -gcflags=all=-l -o "$$dir/bench" .) || exit 1; \
	for b in "$$dir"/*; do $(GO) tool nm "$$b"; done | \
		awk '$$2 == "T" && $$3 ~ /^incastproxy\/internal\// { print $$3 }' | sort -u > reach.txt; \
	printf '%7d  internal symbols linked by %d programs (reach.txt)\n' $$(wc -l < reach.txt) $$(ls "$$dir" | wc -l)

# Microbenchmarks, one `-bench .` invocation per package so new benchmarks
# are picked up without editing a name list here. The root package's
# benchmarks are whole-simulation figure sweeps, so its iteration count
# stays capped at one pass per benchmark.
BENCH_PKGS = ./internal/obs/ ./internal/rng/ ./internal/sim/ ./internal/netsim/ ./internal/topo/ ./internal/control/ ./internal/transport/ ./internal/wire/ ./internal/hoststack/ ./internal/model/ ./internal/relay/
bench:
	$(GO) test -run '^$$' -bench . -benchmem $(BENCH_PKGS)
	$(GO) test -run '^$$' -bench . -benchtime 1x -benchmem .

# The repository benchmark (BENCHMARK.json, bench/README.md): one 25 s run of
# each workload with tracing off, printing the five end-to-end metrics. The
# driver compares these between a parent commit and a change; by hand, run it
# on both and diff.
benchmark:
	for w in cell_baseline cell_streamlined epoch_fanin relay_stream; do \
		bash bench/run.sh --workload $$w --seed 7 --seconds 25 --trace 0 || exit 1; \
	done

# Allocations per op by site, for the benchmark's three simulator workloads
# at seed 7 (BenchmarkEpochOp in internal/workload): a memory profile at rate
# 1 of one op and one of 1 + 5 ops, and pprof's difference of the two
# divided by 5, so what only the first op of a process pays is not counted. A
# row is the function that allocates, runtime frames hidden; flat is
# allocations per op.
allocsites:
	@ops=5; dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; \
	$(GO) test -c -o "$$dir/workload.test" ./internal/workload/ || exit 1; \
	for w in cell_baseline cell_streamlined epoch_fanin; do \
		for n in 1 $$ops; do \
			"$$dir/workload.test" -test.run '^$$' -test.bench "^BenchmarkEpochOp/$$w\$$" -test.benchtime $${n}x \
				-test.memprofilerate 1 -test.memprofile "$$dir/$$w.$$n.prof" > /dev/null || exit 1; \
		done; \
		echo "== $$w: allocations per op"; \
		$(GO) tool pprof -top -sample_index=alloc_objects -hide '^runtime\.' -divide_by $$ops \
			-base "$$dir/$$w.1.prof" "$$dir/workload.test" "$$dir/$$w.$$ops.prof" 2>/dev/null || exit 1; \
	done

# The worker pool and everything routed through it must be race-clean; the
# full suite runs under the detector (chaosnet, relay, and lan tests exercise
# real concurrency too). The explicit timeout matches CI's race leg: the
# detector's 5-15x slowdown pushes the workload suite past go test's 10m
# default on small hosts.
race:
	$(GO) test -race -timeout 50m ./...

# Focused race pass over the deterministic parallel runner and its callers
# (byte-identity across worker counts under the detector).
race-runner:
	$(GO) test -race -timeout 50m ./internal/runner/ ./internal/workload/ .

# The packet-handling packages with the packet checks compiled in
# (internal/netsim/debug_on.go): a released packet is poisoned and Port.Send,
# Switch.Receive, Host.Receive and Release panic on one, and linking a packet
# onto a queue, pipe or free list while another holds it panics with both named.
simdebug:
	$(GO) test -tags simdebug ./internal/netsim ./internal/transport ./internal/proxy ./internal/control ./internal/topo ./internal/workload

# Short fuzz passes over the attacker-facing wire parsers: the dial preamble
# and the packet header (one -fuzz target per invocation, a go tool
# restriction).
fuzz:
	$(GO) test -run=^$$ -fuzz=FuzzParseDial -fuzztime=30s ./internal/wire/
	$(GO) test -run=^$$ -fuzz=FuzzHeaderRoundTrip -fuzztime=30s ./internal/wire/

# Short fuzz pass over the attacker-facing wire parsers, sized for a CI
# smoke step: long enough to shake out a regressed bounds check, short
# enough to keep the gate fast.
fuzz-smoke:
	$(GO) test -run=^$$ -fuzz=FuzzParseDial -fuzztime=10s ./internal/wire/
	$(GO) test -run=^$$ -fuzz=FuzzHeaderRoundTrip -fuzztime=10s ./internal/wire/

# Live-relay chaos soak: the real data plane (loopback TCP, production
# Server/DialViaRelay) at 2x admission capacity through the seeded fault
# proxy, under the race detector. Deterministic fault schedule; asserts the
# overload contract (explicit sheds, bounded p99, clean drain, no leaks)
# and trace completeness (every admitted flow closes a full client+relay
# span tree; every shed leaves a terminal event). See internal/chaosnet
# and EXPERIMENTS.md, "Chaos soak".
soak:
	$(GO) test -race -run 'TestChaosSoak' -count=1 -v ./internal/chaosnet/

figures:
	$(GO) run ./cmd/figures

# The paper-scale tables of Figures 2 (Left), 2 (Right) and 3 (§4's 100 MB,
# 5 runs per point, 6 latencies; ~50 s wall on 2 cores), written to the
# committed testdata/figures-full.txt, the sim-vs-model error table (~5 s) to
# the committed testdata/modelerr.txt, and the paper-scale adaptive table
# (size axis plus the cross-traffic and proxy-crash rows; ~20 s) to the
# committed testdata/adaptive-full.txt. CI's fidelity job re-runs this and
# fails if any of the three files moved, so a change that moves a paper-scale
# cell or a model prediction re-records it and its diff shows every move.
figures-full:
	for f in 2l 2r 3; do $(GO) run ./cmd/figures -fig $$f -full || exit 1; done > testdata/figures-full.txt
	$(GO) run ./cmd/figures -fig modelerr > testdata/modelerr.txt
	$(GO) run ./cmd/figures -fig adaptive -full > testdata/adaptive-full.txt

fmt:
	gofmt -l .
