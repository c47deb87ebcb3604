package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// round is what one measured round of a workload reports.
type round struct {
	// ops is the number of operations attempted (lookups, flood queries,
	// experiment runs) and failed how many of them failed.
	ops, failed int
	// exact holds the simulated quantities that must repeat exactly for a
	// seed whether or not the round is traced (event and message counts,
	// the intra-AS ratio, the result digest as a number pair). Tracing
	// purity and run-to-run determinism are both checked on it.
	exact map[string]float64
	// digest is the SHA-256 of the concatenated Result.Render() outputs
	// (paper workloads), empty elsewhere.
	digest string
	// layer holds per-layer metrics this round could measure: always the
	// counts, plus timings and traced-only figures when traced.
	layer map[string]float64
	// gateErr is a correctness-gate violation found inside the round.
	gateErr error
	// notes are findings that are not violations, for the record.
	notes []string
}

// instance is one set-up copy of a workload, good for one round.
type instance interface {
	// run executes the fixed work. tr is nil when tracing is off.
	run(tr *tracer, parent int) round
	close()
}

// workload builds instances from a seed. setup is everything that
// happens before the first measured operation.
type workload struct {
	name string
	// exactPerSeed says the round's exact map must be identical across
	// rounds of one seed (true for the simulations, false on sockets).
	exactPerSeed bool
	setup        func(seed int64, sz sizes, tr *tracer, parent int) (instance, error)
}

// sizes pins every workload dimension. contractSizes is what
// BENCHMARK.json measures; tests shrink it.
type sizes struct {
	peers        int     // mega-*: population
	dhtLookups   int     // mega-dht: lookups per overlay
	floods       int     // mega-flood: flood queries
	unstructured float64 // paper-unstructured: experiments scale
	selector     float64 // paper-selector: experiments scale
	nodes        int     // live-kademlia: cluster size
	batch        int     // live-kademlia: lookups per round
	warmup       int     // live-kademlia: warm-up lookups in set-up
	idspace      int     // probes: ids for the IDSpace probes
	probe        time.Duration
}

var contractSizes = sizes{
	peers: 250_000, dhtLookups: 10_000, floods: 12_000,
	unstructured: 1, selector: 8,
	nodes: 16, batch: 5_000, warmup: 1_000,
	idspace: 250_000, probe: 100 * time.Millisecond,
}

// sample is one iteration's host-side measurements.
type sample struct {
	traced                       bool
	setupS, wallS, cpuS, allocMB float64
	peakRSSMB                    float64 // VmHWM at the end of the iteration
	r                            round
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// resetPeakRSS restarts VmHWM from the current resident set (Linux: "5"
// to clear_refs), so that every iteration has a high-water mark of its
// own. Where the kernel refuses, the marks stay cumulative.
func resetPeakRSS() { _ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) }

// peakRSSMB is the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// iterate sets the workload up and runs one round, timing both.
func iterate(w workload, seed int64, sz sizes, tr *tracer) (sample, error) {
	// Start every iteration from a collected heap that was handed back to
	// the OS, and its high-water mark from there. With the pages kept,
	// later iterations reuse the first one's heap and VmHWM is that single
	// iteration's GC timing (±5%).
	debug.FreeOSMemory()
	resetPeakRSS()
	root := tr.begin(0, "workload")
	defer tr.end(root)

	sp := tr.begin(root, "setup")
	t0 := time.Now()
	inst, err := w.setup(seed, sz, tr, sp)
	setupS := time.Since(t0).Seconds()
	tr.end(sp)
	if err != nil {
		return sample{}, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	defer inst.close()

	// The round starts from a collected heap as well: its GC pacing then
	// starts from the set-up's live heap, not from wherever the set-up's
	// last cycle happened to leave the goal (peaks of 175–214 MB on
	// mega-flood without this, 174–190 MB with it).
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	sp = tr.begin(root, "round")
	if tr != nil { // profile traced rounds only, starting and stopping outside the timed part
		if err := tr.cpu.start(); err != nil {
			return sample{}, err
		}
	}
	c0, t1 := cpuSeconds(), time.Now()
	r := inst.run(tr, sp)
	wallS := time.Since(t1).Seconds()
	cpuS := cpuSeconds() - c0
	tr.end(sp)
	runtime.ReadMemStats(&m1)
	if tr != nil {
		if err := tr.cpu.stop(); err != nil {
			return sample{}, err
		}
	}
	return sample{
		traced: tr != nil, setupS: setupS, wallS: wallS, cpuS: cpuS,
		allocMB: float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6, peakRSSMB: peakRSSMB(), r: r,
	}, nil
}

// result is what one invocation prints as its last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is the per-workload JSON file written under -out: the result
// plus what the contract's last line has no room for.
type record struct {
	Workload string   `json:"workload"`
	Seed     int64    `json:"seed"`
	Traced   bool     `json:"traced"`
	Rounds   int      `json:"rounds"`
	Digest   string   `json:"result_digest,omitempty"`
	Notes    []string `json:"notes,omitempty"`
	// WallS and SetupS are the per-round samples, in order, behind the
	// medians; with tracing on, odd rounds are the traced ones.
	WallS  []float64 `json:"round_wall_s"`
	SetupS []float64 `json:"round_setup_s"`
	result
}

// measure runs iterations of w until the measured rounds add up to
// seconds (and at least minRounds ran). With traced set, iterations
// alternate untraced and traced so the same invocation yields the
// tracing-purity check and the tracing overhead.
func measure(w workload, seed int64, sz sizes, seconds float64, traced bool, tr *tracer) ([]sample, error) {
	minRounds := 3
	if traced {
		minRounds = 2
	}
	var out []sample
	var measured float64
	for len(out) < minRounds || measured < seconds || (traced && len(out)%2 == 1) {
		var t *tracer
		if traced && len(out)%2 == 1 {
			t = tr
		}
		s, err := iterate(w, seed, sz, t)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
		measured += s.wallS
	}
	return out, nil
}

// gate applies the correctness gate to every round and returns the
// violations: failed operations, gate errors raised inside a round, and
// — on workloads that are exact per seed — any difference in the exact
// quantities between rounds, traced or not (determinism and tracing
// purity in one check).
func gate(w workload, samples []sample) (attempted, failed int, violations []string) {
	first := samples[0].r
	for i, s := range samples {
		attempted += s.r.ops
		failed += s.r.failed
		if s.r.gateErr != nil {
			violations = append(violations, fmt.Sprintf("round %d: %v", i, s.r.gateErr))
		}
		if !w.exactPerSeed {
			continue
		}
		if s.r.digest != first.digest {
			violations = append(violations, fmt.Sprintf("round %d (traced=%v): result_digest %s differs from round 0's %s",
				i, s.traced, s.r.digest, first.digest))
		}
		for _, k := range sortedKeys(first.exact) {
			if s.r.exact[k] != first.exact[k] {
				violations = append(violations, fmt.Sprintf("round %d (traced=%v): %s = %v differs from round 0's %v",
					i, s.traced, k, s.r.exact[k], first.exact[k]))
			}
		}
	}
	if failed > 0 {
		violations = append(violations, fmt.Sprintf("%d of %d operations failed", failed, attempted))
	}
	return attempted, failed, violations
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// medianOf is the median of one field over the samples.
func medianOf(samples []sample, field func(sample) float64) float64 {
	xs := make([]float64, len(samples))
	for i, s := range samples {
		xs[i] = field(s)
	}
	return median(xs)
}

func wallOf(s sample) float64 { return s.wallS }

// endToEnd reduces untraced samples to the end-to-end metrics.
func endToEnd(samples []sample) map[string]metric {
	return map[string]metric{
		"setup_s":     {medianOf(samples, func(s sample) float64 { return s.setupS }), "s"},
		"wall_s":      {medianOf(samples, wallOf), "s"},
		"cpu_s":       {medianOf(samples, func(s sample) float64 { return s.cpuS }), "s"},
		"peak_rss_mb": {medianOf(samples, func(s sample) float64 { return s.peakRSSMB }), "MB"},
		"alloc_mb":    {medianOf(samples, func(s sample) float64 { return s.allocMB }), "MB"},
	}
}
