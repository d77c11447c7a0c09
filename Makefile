# Build and verification targets. `make test` is the tier-1 gate;
# `make race` is the same suite under the race detector and should be run
# before merging anything that touches the TM stack.

GO ?= go
FUZZTIME ?= 10s
CHAOS_RUNS ?= 5
CHAOS_SEED ?= 1

.PHONY: all build test bench-check lint mutate race race-tm race-stress stress fuzz-short chaos chaos-teeth bench serve-smoke crash-smoke crash-chaos repl-smoke repl-chaos loc clean

CRASH_SEED ?= 1

# The TM stack proper: the packages `make race-tm` sweeps before merging
# engine changes, with the orec table and the heap every engine is built on.
TM_PKGS = ./internal/stm/... ./internal/htm/... ./internal/epoch/... \
	./internal/tm/... ./internal/tle/... ./internal/condvar/... \
	./internal/tmclock/... ./internal/memseg/...

# Microbenchmark settings for `make bench`. The repository's performance
# record is BENCHMARK.json + benchmark/, not this target: it exists so CI can
# run every listed benchmark once (a benchmark that cannot rot) and so two
# hand captures under $(BENCHDIR) (scratch, not tracked) compare with benchstat.
BENCHTIME ?= 300ms
BENCHCOUNT ?= 3
BENCHDIR ?= bench-out

all: build test

build:
	$(GO) build ./...

# Tier-1: the full unit/property suite.
test:
	$(GO) test ./...

# benchmark/ is its own Go module, so tier-1 never compiles it; it imports
# internal/{wal,repl,logrec,kvstore,server} and may not be edited alongside
# them. This builds, vets and smoke-tests it against the current tree, so an
# API break shows up here and not when the benchmark pipeline next runs.
bench-check:
	cd benchmark && $(GO) vet ./... && $(GO) test -count=1 ./...

# Static analysis: gofmt (analyzer fixtures under testdata/ excepted: their
# layout is what the analyzers see), a Windows and a macOS build (the
# simulated heap's mapping is unix-only, with a Go-heap fallback elsewhere),
# standard go vet, and the
# transaction-safety suite (cmd/tmvet; see DESIGN.md "Static analysis").
# tmvet exits non-zero on any diagnostic: a finding is fixed or carries a
# //gotle:allow with its reason. So this target is a gate, not a report. The whole recipe also
# carries a wall-clock budget: the interprocedural passes (call-graph
# walks, allocation summaries) must stay fast enough to run on every push,
# so the target fails if the full sweep exceeds LINT_BUDGET seconds.
LINT_BUDGET ?= 90

lint:
	@start=$$(date +%s); \
	bad=$$(gofmt -l $$(find . -name '*.go' -not -path '*/testdata/*' -not -path './.*')); \
	if [ -n "$$bad" ]; then echo "lint: not gofmt-clean:" >&2; echo "$$bad" >&2; exit 1; fi; \
	GOOS=windows $(GO) build ./... && GOOS=darwin $(GO) build ./... || exit 1; \
	$(GO) vet ./... || exit 1; \
	$(GO) run ./cmd/tmvet ./... || exit 1; \
	took=$$(( $$(date +%s) - start )); \
	echo "lint: clean in $${took}s (budget $(LINT_BUDGET)s)"; \
	if [ $$took -gt $(LINT_BUDGET) ]; then \
		echo "lint: exceeded the $(LINT_BUDGET)s wall-clock budget — profile the analyzers or raise LINT_BUDGET deliberately" >&2; \
		exit 1; \
	fi

# The mutation table (internal/analysis/mutate_test.go, behind the mutate
# build tag so `go test ./...` never builds it): seeded bug shapes, each
# applied to a copy of the tree, and which layers catch each one — every
# tmvet analyzer, `go test -race` on the tests the shape names, lockcheck,
# the engine's RaceDetect tests and the chaos sweep. It fails when the
# unmutated copy is caught or a shape is caught by no layer; the table it
# prints is DESIGN.md §7's.
mutate:
	$(GO) test -tags mutate -count=1 -timeout 30m -run TestMutationTable -v ./internal/analysis

# Tier-1 under the race detector.
race:
	$(GO) test -race ./...

# Race detector over just the TM engine packages: the fast sweep to run
# before merging anything that touches the TM stack, ending with
# race-stress.
race-tm:
	$(GO) test -race $(TM_PKGS)
	$(MAKE) race-stress

# The tests of the serial lock's slot handshake, HTM doom, the HTM's read
# registration against a write claim, read-set release and claim steals,
# deferred reclamation, quiescence and the per-thread block caches: both
# stress targets run them twenty times.
HANDSHAKE_TESTS = TestSerialLock|TestSerialSection|TestParkedAttempts|TestTwoWordInvariant|TestDeferredReclaim|TestQuiesce|TestReadRegistrationRacesWriteClaim|TestStealSparesNextAttemptsClaim|TestThreadCacheChurn

# The handshake tests under the race detector; CI's race job runs this
# target.
race-stress:
	$(GO) test -race -count=20 -run '$(HANDSHAKE_TESTS)' \
		./internal/tm ./internal/htm ./internal/epoch

# The handshake tests with the STM's interleaving tests, twenty times
# without the race detector: the only build in which relstore's release
# stores are plain MOVs, so the only one that runs the orderings the TM
# stack ships with. CI's test job runs this target.
stress:
	$(GO) test -count=20 -run '$(HANDSHAKE_TESTS)|TestLateLoadAfterExtend|TestCMCorrectnessUnderContention|TestConcurrentIncrements' \
		./internal/tm ./internal/htm ./internal/epoch ./internal/stm

# Short bursts of the native fuzz targets (long-form: go test -fuzz=X -fuzztime=10m).
fuzz-short:
	$(GO) test -run '^$$' -fuzz FuzzWALRecord -fuzztime $(FUZZTIME) ./internal/wal
	$(GO) test -run '^$$' -fuzz FuzzPackUnpack -fuzztime $(FUZZTIME) ./internal/kvstore
	$(GO) test -run '^$$' -fuzz FuzzDecompress -fuzztime $(FUZZTIME) ./internal/bzlike
	$(GO) test -run '^$$' -fuzz FuzzCompressRoundTrip -fuzztime $(FUZZTIME) ./internal/bzlike
	$(GO) test -run '^$$' -fuzz FuzzParseCommand -fuzztime $(FUZZTIME) ./internal/server
	$(GO) test -run '^$$' -fuzz FuzzReplFrame -fuzztime $(FUZZTIME) ./internal/repl

# Chaos sweep: every policy x fault mix under seeded fault injection, with
# linearizability checking. A failure prints the seed to replay.
chaos:
	$(GO) test . -run TestChaos -v
	$(GO) run ./cmd/figures chaos -runs $(CHAOS_RUNS) -seed $(CHAOS_SEED)

# Paper-figure, quiescence, simulated-HTM, captured-store, per-policy kvstore,
# parallel-get, parallel-set, disjoint-section scaling and empty-section
# (read at -cpu 1 against -cpu 2), matched-access calibration (fixed and
# per-line cost of a section, lock vs HTM vs STM), allocator (shared stacks
# against a thread's cache, at -cpu 1,2), WAL-recovery, store-replay,
# runtime-construction (B/op is a runtime's footprint) and connection-footprint
# (B/conn is what a connection's ops hold after its requests) benchmarks with pinned
# -benchtime/-count. Raw text goes to
# $(BENCHDIR)/current.txt; compare two captures with benchstat. CI runs the
# same list once through
# (`make bench BENCHTIME=1x BENCHCOUNT=1`) so a benchmark cannot rot.
bench:
	mkdir -p $(BENCHDIR)
	$(GO) test -run '^$$' \
		-bench 'BenchmarkFig2Compress|BenchmarkFig2Decompress|BenchmarkFig3X265|BenchmarkFig5Sets|BenchmarkQuiescenceCost' \
		-benchtime $(BENCHTIME) -count $(BENCHCOUNT) . | tee $(BENCHDIR)/current.txt
	$(GO) test -run '^$$' -bench 'BenchmarkQuiesceIdle' \
		-benchtime $(BENCHTIME) -count $(BENCHCOUNT) ./internal/epoch | tee -a $(BENCHDIR)/current.txt
	$(GO) test -run '^$$' -bench 'BenchmarkTxReadOnly16|BenchmarkTxRMW|BenchmarkSmallTxAfterLargeTx|BenchmarkCapturedStoreRange' \
		-benchtime $(BENCHTIME) -count $(BENCHCOUNT) ./internal/htm ./internal/tm | tee -a $(BENCHDIR)/current.txt
	$(GO) test -run '^$$' -bench 'BenchmarkGet$$|BenchmarkSet$$' \
		-benchtime $(BENCHTIME) -count $(BENCHCOUNT) ./internal/kvstore | tee -a $(BENCHDIR)/current.txt
	$(GO) test -run '^$$' -bench 'BenchmarkGetParallel|BenchmarkSetParallel' -cpu 1,2 \
		-benchtime $(BENCHTIME) -count $(BENCHCOUNT) ./internal/kvstore | tee -a $(BENCHDIR)/current.txt
	$(GO) test -run '^$$' -bench 'BenchmarkDisjointScaling|BenchmarkSetsScaling|BenchmarkEmptyDo' -cpu 1,2 \
		-benchtime $(BENCHTIME) -count $(BENCHCOUNT) ./internal/tle | tee -a $(BENCHDIR)/current.txt
	$(GO) test -run '^$$' -bench 'BenchmarkMatchedAccess' -cpu 1 \
		-benchtime $(BENCHTIME) -count $(BENCHCOUNT) ./internal/tle | tee -a $(BENCHDIR)/current.txt
	$(GO) test -run '^$$' -bench 'BenchmarkAllocFree' -cpu 1,2 -benchmem \
		-benchtime $(BENCHTIME) -count $(BENCHCOUNT) ./internal/memseg | tee -a $(BENCHDIR)/current.txt
	$(GO) test -run '^$$' -bench 'BenchmarkRecover|BenchmarkNewRuntime|BenchmarkConnFootprint' -benchmem \
		-benchtime $(BENCHTIME) -count $(BENCHCOUNT) ./internal/wal ./internal/kvstore ./internal/tle \
		./internal/server | tee -a $(BENCHDIR)/current.txt

# The network server's zero-to-OK gate: the allocation gate (the serving
# hot path must do exactly 0 allocs/op — see TestZeroAllocHotPath), then the
# binaries, built once. The mutation path under serve-write's traffic shape
# (2 KiB values overflow a 24-line HTM write set, so shards take the serial
# path and leave htm-cv): a tleserved on a free port, `loadgen -check`
# against it, and the recorded history must linearize per key and loadgen's
# `adaptive:` line must show no shard with more than one switch (a
# demotion is for good); once WAL-off and once with -wal, so "the binary
# actually serves, durably too" can never regress silently. Last, a default
# tleserved (no -capacity) under 64 B and 2 KiB sets over twice its item
# count: it must fit its heap, so loadgen exits 0 and the server still
# answers `version`; its `heap_used_bytes` and `heap_live_bytes` after the
# fill, and its `VmHWM` (peak resident size, from /proc where there is one),
# are printed, not gated, so every log carries the server's footprint.
serve-smoke:
	$(GO) test -run TestZeroAllocHotPath -count 1 ./internal/server
	rm -rf $(BENCHDIR)/smoke-wal
	mkdir -p $(BENCHDIR)
	$(GO) build -o $(BENCHDIR)/tleserved ./cmd/tleserved
	$(GO) build -o $(BENCHDIR)/loadgen ./cmd/loadgen
	@log=$(BENCHDIR)/smoke-served.log; pid=; \
	trap 'kill $$pid 2>/dev/null; wait $$pid 2>/dev/null; rm -rf $(BENCHDIR)/smoke-wal' EXIT; \
	serve() { \
		$(BENCHDIR)/tleserved -addr 127.0.0.1:0 "$$@" >$$log 2>&1 & pid=$$!; \
		addr=; for i in $$(seq 100); do \
			addr=$$(sed -n 's/^listening on \([^ ]*\).*/\1/p' $$log); \
			[ -n "$$addr" ] && return; sleep 0.1; \
		done; \
		cat $$log; exit 1; \
	}; \
	for wal in "" "-wal $(BENCHDIR)/smoke-wal"; do \
		serve -htm-write-lines 24 -capacity 2048 $$wal; \
		$(BENCHDIR)/loadgen -addr $$addr -check -conns 2 -depth 8 -keyspace 32768 -skew 1.1 \
			-valsize 64,2048 -set 60 -del 10 -ops 20000 >$(BENCHDIR)/smoke-check.txt 2>&1; \
		cat $(BENCHDIR)/smoke-check.txt; \
		grep -q '^check: OK' $(BENCHDIR)/smoke-check.txt || { cat $$log; exit 1; }; \
		a=$$(grep '^adaptive:' $(BENCHDIR)/smoke-check.txt) && \
			! echo "$$a" | grep -qE '\(([2-9]|[0-9]{2,})\)' || \
			{ echo "serve-smoke: no adaptive line, or a shard switched more than once"; cat $$log; exit 1; }; \
		kill $$pid; wait $$pid 2>/dev/null; \
	done; \
	serve; \
	$(BENCHDIR)/loadgen -addr $$addr -conns 2 -depth 32 -keyspace 65536 \
		-valsize 64,2048 -set 60 -ops 600000 || { cat $$log; exit 1; }; \
	bash -c 'exec 3<>/dev/tcp/$${1%:*}/$${1##*:} && printf "stats\r\nversion\r\n" >&3 && \
		while read -r -t 5 l <&3; do case "$$l" in END*) break;; \
			"STAT heap_used_bytes "*|"STAT heap_live_bytes "*) echo "serve-smoke: $${l#STAT }" | tr -d "\r";; esac; \
		done; \
		read -r -t 5 v <&3; echo "$$v"; case "$$v" in VERSION*) ;; *) exit 1;; esac' - $$addr || \
		{ cat $$log; exit 1; }; \
	sed -n 's/^VmHWM:[[:space:]]*/serve-smoke: VmHWM /p' /proc/$$pid/status 2>/dev/null || true

# Prove the chaos checker still bites: a sabotaged engine must be caught.
chaos-teeth:
	$(GO) run ./cmd/figures chaos -break-undo -policy stm-cv -faults none -runs $(CHAOS_RUNS) -seed $(CHAOS_SEED)

# Kill-9 crash consistency (cmd/fleettest crash): tleserved with -wal under live
# load, SIGKILLed at a seeded random point, restarted from the log; the
# merged pre/post-crash history must linearize per key (acked writes
# survive, unacked may go either way). crash-smoke is the CI gate; crash-
# chaos sweeps more seeds over a wider kill window.
crash-smoke:
	$(GO) run ./cmd/fleettest crash -runs 3 -seed $(CRASH_SEED)

crash-chaos:
	$(GO) run ./cmd/fleettest crash -runs 12 -seed $(CRASH_SEED) \
		-kill-min 150ms -kill-max 1500ms -conns 12 -depth 8

# Replication convergence (cmd/fleettest repl): one primary streams its
# per-shard commit log to two followers through seeded faulty links
# (delay/sever/corrupt); loadgen mutates the primary and stale-reads the
# followers; the round passes only if every node's shard dumps are
# byte-identical after quiesce AND the combined primary+follower history
# satisfies the stale-read linearizability model. repl-smoke is the CI
# gate and prints follower apply throughput + worst steady-state lag as
# benchstat lines; repl-chaos sweeps more seeds and adds the kill-9
# follower restart (resume from the follower's own WAL cursor).
REPL_SEED ?= 1
repl-smoke:
	$(GO) run ./cmd/fleettest repl -runs 1 -followers 2 -ops 20000 -seed $(REPL_SEED)

repl-chaos:
	$(GO) run ./cmd/fleettest repl -runs 6 -followers 2 -ops 20000 -seed $(REPL_SEED) \
		-kill-follower

# Non-test Go lines per package directory, benchmark/ and analyzer testdata
# excluded: the figure ROADMAP's deletion target is stated in. Record the
# output in CHANGES.md with each PR.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' \
		! -path './.bench_build/*' ! -path '*/testdata/*' | xargs wc -l | \
		awk '$$2 != "total" { d = $$2; sub(/\/[^\/]*$$/, "", d); n[d] += $$1; t += $$1 } \
			END { for (d in n) printf "%7d %s\n", n[d], d; printf "%7d total\n", t }' | sort -k2

clean:
	$(GO) clean ./...
