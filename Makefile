GO ?= go

.PHONY: all build vet govet machvet inline-check test race sim fuzz-smoke benchmark bench bench-smoke bench-arsenal locktrace lockmon mon-smoke machd machd-smoke lockcover lockcover-check

all: vet build test

build:
	$(GO) build ./...

# Standard go vet plus machvet, the repo's own locking-discipline checker
# (internal/analysis): holdblock, lockorder, unlockpath, refdiscipline,
# atomicity, sleepwake. Findings fail the build. `vet` is the
# one entry point (CI runs exactly this target); govet/machvet split the
# two halves for local iteration without duplicating either invocation.
vet: govet machvet

govet:
	$(GO) vet ./...

machvet:
	$(GO) run ./cmd/machvet ./...

# The gates every lock operation passes on its untraced path must stay
# inlinable: a gate that stops inlining puts a call on every acquisition
# and release. Fails unless the compiler reports each one inlinable.
inline-check:
	@out=$$($(GO) build -gcflags=-m ./internal/trace ./internal/machsim/simhook ./internal/core/splock 2>&1) || { echo "$$out"; exit 1; }; \
	for want in 'internal/trace/trace\.go:[0-9:]+ can inline \(\*Class\)\.On$$' \
		'internal/trace/trace\.go:[0-9:]+ can inline Enabled$$' \
		'internal/machsim/simhook/simhook\.go:[0-9:]+ can inline Enabled$$' \
		'internal/machsim/simhook/simhook\.go:[0-9:]+ can inline Yield$$' \
		'internal/machsim/simhook/simhook\.go:[0-9:]+ can inline Note$$' \
		'internal/machsim/simhook/simhook\.go:[0-9:]+ can inline Index$$'; do \
		echo "$$out" | grep -Eq "$$want" || { echo "inline-check: no match for $$want"; exit 1; }; \
	done; echo "inline-check: ok"

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Deterministic schedule exploration (internal/machsim): the TestSim*
# suites run every protocol under seeded-random walks and bounded-
# preemption DFS with fixed seeds and budgets, so two consecutive runs
# explore byte-identical schedules. Also run in CI (before the -race
# tests), publishing sim-coverage.out as a job artifact. Reproduce a
# reported failure with MACHSIM_SEED=<seed> or machsim.Replay(schedule).
# The MACHLOCK_LOCKGRAPH prefix makes the traced packages also dump the
# lock-order edges they observed (lockgraph-dynamic-kern.json), feeding
# the `make lockcover` cross-check.
sim:
	MACHLOCK_LOCKGRAPH=$(CURDIR)/lockgraph-dynamic $(GO) test -run 'TestSim' \
		-coverprofile=sim-coverage.out \
		-coverpkg=./internal/... \
		./internal/machsim/ ./internal/machsim/scenarios/ ./internal/core/... \
		./internal/kern/ ./internal/sched/ ./internal/pmap/ ./internal/ipc/

# Seed-corpus pass over every fuzz target: the machsim ones (cxlock option
# combos, refcount clone/release sequences, engine-found replay schedules)
# and the two decoders of bytes that arrive over the network (mig payloads,
# netmsg frames). Also run in CI. For a real fuzzing session:
#   go test ./internal/core/cxlock/ -run '^$$' -fuzz FuzzSimCxlockOptions
#   go test ./internal/netmsg/ -run '^$$' -fuzz FuzzNetmsgFrame
fuzz-smoke:
	$(GO) test -run 'Fuzz' ./internal/core/cxlock/ ./internal/core/refcount/ ./internal/machsim/ \
		./internal/mig/ ./internal/netmsg/

# The repository's benchmark (BENCHMARK.json, bench/README.md): four
# closed-loop workloads, every metric printed by name and unit, result
# set in bench/out/result.json. The only code that produces or judges a
# performance number; compare two result sets with
#   go run ./bench -compare parent.json change.json
benchmark:
	$(GO) run ./bench

# Experiment benchmarks (E1-E13) plus the uncontended fast-path pairs
# that pin the observability layer's disabled-tracing overhead.
bench:
	$(GO) test -bench . -benchmem ./...

# One-iteration benchmark pass (also run in CI): catches bit-rot in the
# uncontended fast-path benchmarks without paying for a full bench run.
bench-smoke:
	$(GO) test -bench=BenchmarkUncontended -benchtime=1x -run='^$$' .

# Arsenal shootout smoke (also run in CI): the production algorithms'
# uncontended pairs, the E14 contended sweep across every
# machlock.Algorithm, and the deterministic E14 claims test on the
# simulated locks (queue/cohort beat TTAS at 16 CPUs, cohort wins
# cross-cell locality, adaptive actually parks).
bench-arsenal:
	$(GO) test -bench='BenchmarkUncontended(Spin$$|Queue|Facade)|BenchmarkE14' \
		-benchtime=100x -run='^$$' .
	$(GO) test -run 'TestClaimE14' -count=1 ./internal/experiments/

locktrace:
	$(GO) run ./cmd/locktrace

# Run the continuous monitor with live workloads and the HTTP surface.
lockmon:
	$(GO) run ./cmd/lockmon

# Monitor smoke test (also run in CI): starts the monitor on an ephemeral
# port, injects the vm_map_pageable-style deadlock, probes every
# /debug/machlock/ endpoint, and asserts the incident capture and a
# non-empty Prometheus scrape.
mon-smoke:
	$(GO) run ./cmd/lockmon -smoke -threads 4 -ops 200

# Run the machd daemon (serve mode; ^C to stop). See cmd/machd for load
# mode: machd -load -duration 60s -rate 2000 -mix default
machd:
	$(GO) run ./cmd/machd -rpc 127.0.0.1:7207 -http 127.0.0.1:7208

# machd smoke test (also run in CI): boots the daemon on ephemeral ports,
# drives four distinct scenario mixes over real TCP sockets, scrapes
# /debug/machlock/metrics, and asserts the SLO quantiles are populated,
# the combined exposition carries the machlock_* and machd_* families,
# and zero incidents were filed. The lock-order collector is on, and the
# class edges it observed are dumped through the real
# /debug/machlock/lockgraph endpoint for the cross-check below.
machd-smoke:
	$(GO) run ./cmd/machd -smoke -lockgraph lockgraph-dynamic-machd.json

# Static-vs-dynamic lock-graph cross-check. `machvet -graph` proves the
# whole-program class acquisition order; the sim and machd-smoke runs
# record what actually nested at runtime. Any dynamic-only edge is an
# analysis soundness hole and fails the target; static coverage below the
# committed baseline (lockgraph-baseline.txt) fails too. The full target
# regenerates both sides; lockcover-check just diffs what is on disk
# (CI runs the pieces separately so the artifacts upload individually).
lockcover: sim machd-smoke lockcover-check

lockcover-check:
	$(GO) run ./cmd/machvet -graph lockgraph-static.json ./...
	$(GO) run ./cmd/machvet -diff -mincover $$(cat lockgraph-baseline.txt) \
		lockgraph-static.json lockgraph-dynamic-machd.json lockgraph-dynamic-kern.json \
		> lockgraph-coverage.txt; st=$$?; cat lockgraph-coverage.txt; exit $$st
