GO ?= go

# BENCHTIME bounds each benchmark iteration window; raise it (e.g. 1s)
# for publication-quality numbers.
BENCHTIME ?= 100ms

.PHONY: ci fmt vet deadcode golden build test race bench bench-check bench-json perf-gate cover lines series-demo chaos fuzz-smoke megascale-smoke net-smoke live-chaos

# ci is the full verification gate: gofmt, static analysis, the reachability
# pass (no un-triaged symbol only tests reach), the byte-identity check
# of the CLI outputs against testdata/golden.sha256, a clean build of
# every package, vet + tests of the nested bench/ module (which the root
# ./... patterns skip), the test suite under the race detector, the chaos
# suite, fuzz smokes of the schedule parser, the XOR ground-truth trie,
# the real-socket wire codec, compact Kademlia's packed rows and compact
# Chord's derived ring, an
# end-to-end smoke of the probe plane (record → sample → series), a
# mid-size sharded-kernel run of all three compact overlays under race,
# a live multi-process cluster smoke over localhost UDP, the live chaos
# campaign (sim-vs-live conformance plus schedule-driven fault injection
# against real clusters), and the perf gate (fails on a >15% B/op or
# allocs/op regression against the baseline snapshot; ns/op moves are
# advisory).
# The coverage summary and the line count run afterwards as non-fatal
# reporting steps.
ci: fmt vet deadcode golden build bench-check race chaos fuzz-smoke series-demo megascale-smoke net-smoke live-chaos perf-gate
	-$(MAKE) cover
	-$(MAKE) lines

# fmt is the formatting gate: it lists every Go file gofmt would change
# (bench/ included) and fails when there is one. `gofmt -w <file>` mends it.
fmt:
	@files=$$(gofmt -l .); if [ -n "$$files" ]; then echo "gofmt needed:"; echo "$$files"; exit 1; fi

vet:
	$(GO) vet ./...

# deadcode is the reachability gate: every package-level symbol and
# method that main, init and bench/ reach only through a _test.go file
# must carry a verdict in deadcode.keep (ci-harness, oracle, test-seam,
# paper-feature, deferred), and every verdict must still name a dead
# symbol. New code nothing runs fails here until it is wired in, deleted
# or triaged. ~4 s.
deadcode:
	$(GO) run ./cmd/unapctl deadcode

# golden is the output byte-identity gate: it builds unapctl and the
# five examples, writes `unapctl run -all -seed 1 -scale 0.25` stdout,
# the `unapctl run -exp exp-intra-as -seed 1 -scale 0.5 -o` run file with
# and without `-probe 50`, the `-seed 1 -scale 0.25 -probe 1000 -o` run
# file of each SAMPLED experiment (<id>.jsonl: pins the order in which
# each one registers observers and health sources and where it takes
# samples, which stdout does not show), and each example's stdout
# (example-<name>.txt) into GOLDEN_DIR, and checks their sha256 against
# testdata/golden.sha256. A change that means to alter output
# regenerates that file (`sha256sum underlaysim-all.txt intra-as.jsonl
# intra-as-probe50.jsonl <id>.jsonl... example-*.txt` in GOLDEN_DIR) and
# says why; anything else that moves a byte fails here. The hashes are
# for linux/amd64 (another GOARCH may round floats differently). ~8 s.
GOLDEN_DIR ?= .golden
EXAMPLES := geosearch ispfriendly latencyoverlay quickstart streamtv
SAMPLED := exp-pns-kademlia abl-pns-metric exp-chord-pns exp-brocade exp-superpeer exp-resilience exp-streaming \
	exp-bns-swarm exp-gsh-leopard abl-pong-cache exp-testlab exp-topology-matching abl-external-links
golden:
	@mkdir -p $(GOLDEN_DIR)
	$(GO) build -o $(GOLDEN_DIR)/unapctl ./cmd/unapctl
	cd $(GOLDEN_DIR) && ./unapctl run -all -seed 1 -scale 0.25 > underlaysim-all.txt
	cd $(GOLDEN_DIR) && ./unapctl run -exp exp-intra-as -seed 1 -scale 0.5 -o intra-as.jsonl > /dev/null
	cd $(GOLDEN_DIR) && ./unapctl run -exp exp-intra-as -seed 1 -scale 0.5 -probe 50 -o intra-as-probe50.jsonl > /dev/null
	for e in $(SAMPLED); do \
		(cd $(GOLDEN_DIR) && ./unapctl run -exp $$e -seed 1 -scale 0.25 -probe 1000 -o $$e.jsonl > /dev/null) || exit 1; \
	done
	for e in $(EXAMPLES); do \
		$(GO) build -o $(GOLDEN_DIR)/$$e ./examples/$$e && \
		(cd $(GOLDEN_DIR) && ./$$e > example-$$e.txt) || exit 1; \
	done
	cd $(GOLDEN_DIR) && sha256sum -c $(CURDIR)/testdata/golden.sha256

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# bench-check vets and tests bench/, the end-to-end benchmark behind
# BENCHMARK.json. It is a module of its own (bench/go.mod, replace
# unap2p => ../), so root `go build/vet/test ./...` never compile it:
# without this target an internal/ API edit that breaks the frozen
# benchmark surface is only discovered by the benchmark pipeline. ~4 s.
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# -shuffle=on randomizes test order within each package, surfacing
# test-order coupling (shared ports, leaked goroutines) early.
race:
	$(GO) test -race -shuffle=on ./...

# bench runs the tier-1 micro-benchmarks with allocation stats, three
# interleaved runs each so variance is visible.
bench:
	$(GO) test -run='^$$' -bench=. -benchtime=$(BENCHTIME) -benchmem -count=3 ./...

# bench-json snapshots the benchmark suite into a stable JSON artifact
# so later PRs can diff against this one. -count=6 gives the
# averaging in bench-import something to chew on.
BENCH_JSON ?= BENCH_CI.json
bench-json:
	$(GO) test -run='^$$' -bench=. -benchtime=$(BENCHTIME) -benchmem -count=6 ./... \
		| $(GO) run ./cmd/unapctl bench-import -o $(BENCH_JSON)

# perf-gate is the CI benchmark regression gate: re-measure the suite,
# snapshot it (BENCH_JSON), and compare every benchmark present in both
# the baseline and the fresh snapshot. It fails when a benchmark's B/op
# or allocs/op grows by more than PERF_THRESHOLD (15 %): those two
# columns are exact and read the same on every machine. ns/op rows are
# listed as advisory only: on a shared machine min ns/op of unchanged
# packages reads ±25 % between back-to-back runs, so a time column would
# gate on noise. Time is gated by the paired parent/change runs of
# BENCHMARK.json instead. The baseline is BENCH_PR45.json. A benchmark
# present on only one side is reported but never gates. What each
# baseline snapshot measured is recorded in CHANGES.md.
BENCH_BASELINE ?= BENCH_PR45.json
PERF_THRESHOLD ?= 0.15
perf-gate:
	$(MAKE) bench-json
	$(GO) run ./cmd/unapctl bench-diff -threshold $(PERF_THRESHOLD) $(BENCH_BASELINE) $(BENCH_JSON)

# cover writes a merged coverage profile and prints the total statement
# coverage.
cover:
	$(GO) test -coverprofile=coverage.out ./...
	$(GO) tool cover -func=coverage.out | tail -n 1

# lines prints the size of the program the code diet tracks: non-test
# Go lines outside the bench/ module, then the non-test lines of
# internal/experiments, the largest package, on a line of their own.
lines:
	@find . -name '*.go' ! -name '*_test.go' -not -path './bench/*' | xargs cat | wc -l
	@echo "internal/experiments $$(find internal/experiments -name '*.go' ! -name '*_test.go' | xargs cat | wc -l)"

# chaos runs the self-healing suite: every overlay under the standard
# seeded fault campaign (loss burst + crash wave) with a live failure
# detector, three pinned seeds each run twice, asserting invariants,
# byte-identical run files, and each run file's sha256 against
# internal/integration/testdata/runfiles.sha256 (linux/amd64; on a
# mismatch the test prints the complete replacement file) — race-enabled,
# since detector, injector, and overlay repair all share the kernel.
chaos:
	$(GO) test -race -run 'TestChaos' -v ./internal/integration/

# fuzz-smoke gives the fuzz targets a short budget each — enough to
# catch regressions in CI without the open-ended runtime of a real
# fuzzing campaign: the chaos schedule parser, the binary-trie XOR
# ground truth every megascale exactness figure rests on (cross-checked
# against a naive scan), the nettransport wire codec (arbitrary
# datagrams must never panic the receive loop), the address-book peer
# codec (a lying entry count must never drive the allocator; decode →
# merge → encode is a fixpoint), the codec's IPv4 address fast path
# (it accepts nothing netip.ParseAddrPort would read differently),
# compact Kademlia's packed rows (any Observe stream, before and after
# Seed, leaves every bucket as the flat n×Buckets×K reference does), and
# compact Chord's derived ring (for any ring size, seed, Aware setting
# and target, every peer's candidates match the stored successor and
# finger rows of refRows).
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzParseSchedule -fuzztime=10s ./internal/chaos/
	$(GO) test -run='^$$' -fuzz=FuzzClosestGlobal -fuzztime=10s ./internal/megascale/
	$(GO) test -run='^$$' -fuzz=FuzzWireCodec -fuzztime=10s ./internal/nettransport/
	$(GO) test -run='^$$' -fuzz=FuzzDecodePeers -fuzztime=10s ./internal/nettransport/
	$(GO) test -run='^$$' -fuzz=FuzzPeerAddr -fuzztime=10s ./internal/nettransport/
	$(GO) test -run='^$$' -fuzz=FuzzCompactObserve -fuzztime=10s ./internal/overlay/kademlia/
	$(GO) test -run='^$$' -fuzz=FuzzCompactRingRows -fuzztime=10s ./internal/overlay/chord/

# net-smoke boots a real multi-process cluster per overlay: 5 unapnode
# OS processes on localhost UDP ports, joined through a bootstrap, each
# running 100 verified lookups against the deterministic NodeKey ground
# truth with a 95% success floor, then shut down with SIGTERM. This is
# the live counterpart of megascale-smoke: same overlays, real sockets.
NETSMOKE_NODES ?= 5
NETSMOKE_LOOKUPS ?= 100
net-smoke:
	UNAP_NETSMOKE_OVERLAYS=kademlia,chord,gnutella \
	UNAP_NETSMOKE_NODES=$(NETSMOKE_NODES) \
	UNAP_NETSMOKE_LOOKUPS=$(NETSMOKE_LOOKUPS) \
		$(GO) test -race -count=1 -run 'TestNetSmoke' -v ./internal/integration/

# live-chaos runs the deterministic chaos schedules against real
# clusters, in three tiers: (1) the in-process campaign — one cluster
# per overlay takes a loss-burst + crash-wave schedule under the race
# detector, must evict exactly the killed nodes and reconverge to the
# ≥95% verified-lookup floor, plus the revive-rejoin and
# detector-recant-under-loss cases; (2) the sim-vs-live conformance
# test — the same schedule shape under chaos.Injector (sim kernel) and
# chaos.LiveInjector (wall clock, sockets), both held to the same
# invariant floor; (3) the OS-process tier — unapnode daemons with
# -chaos flags, SIGKILL crash waves, eviction exactness verified
# through each survivor's /metrics, SIGTERM-clean shutdown.
NETCHAOS_NODES ?= 6
NETCHAOS_LOOKUPS ?= 25
live-chaos:
	$(GO) test -race -count=1 -run 'TestLiveChaosCampaign|TestLiveReviveRejoins|TestDetectorRecantsUnderLiveLoss' -v ./internal/livenode/
	$(GO) test -race -count=1 -run 'TestSimLiveConformance' -v ./internal/integration/
	UNAP_NETCHAOS_OVERLAYS=kademlia,chord,gnutella \
	UNAP_NETCHAOS_NODES=$(NETCHAOS_NODES) \
	UNAP_NETCHAOS_LOOKUPS=$(NETCHAOS_LOOKUPS) \
		$(GO) test -count=1 -run 'TestNetChaos' -v ./internal/integration/

# megascale-smoke runs the sharded kernel at CI-sized scale — ~50k
# peers with churn, all three compact overlays (kademlia, chord,
# gnutella) at K=1 and K=4, under the race detector. Catches
# shard-ownership violations that the small unit tests are too sparse
# to provoke. MEGASMOKE_PEERS scales it up (the full 1M-peer study is
# `unapctl run -exp exp-megascale -param peers=1000000 -param overlay=all`).
MEGASMOKE_PEERS ?= 50000
megascale-smoke:
	UNAP_MEGASMOKE_PEERS=$(MEGASMOKE_PEERS) \
		$(GO) test -race -run 'TestMegascaleSmoke' -v ./internal/integration/

# series-demo exercises the whole probe pipeline end to end: record a
# Gnutella experiment with a 50 ms sim-time probe, then render its
# convergence curves as sparklines. A smoke test for record → sample →
# series, and the quickest way to see what the probe plane produces.
SERIES_RUN ?= /tmp/unap2p-series-demo.jsonl
series-demo:
	$(GO) run ./cmd/unapctl run -exp exp-intra-as -scale 0.5 -probe 50 -o $(SERIES_RUN)
	$(GO) run ./cmd/unapctl series -metric 'health:*' $(SERIES_RUN)
