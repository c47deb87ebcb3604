package main

import (
	"math"
	"net"
	"testing"
	"time"

	"unap2p/internal/sim"
)

// toySizes shrinks every workload so the whole smoke test takes a few
// seconds: what is checked is the shape of the output, not its values.
var toySizes = sizes{
	peers: 2_000, dhtLookups: 200, floods: 200,
	unstructured: 0.25, selector: 0.25,
	nodes: 4, batch: 200, warmup: 50,
	idspace: 2_000, probe: 2 * time.Millisecond,
}

func udpAvailable() error {
	c, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return err
	}
	return c.Close()
}

// TestWorkloadsEmitDeclaredMetrics runs every workload at toy size, once
// untraced and once traced, and checks that exactly the metrics
// BENCHMARK.json declares come out, each with its declared unit and a
// finite value, with the correctness gate green.
func TestWorkloadsEmitDeclaredMetrics(t *testing.T) {
	if err := udpAvailable(); err != nil {
		t.Skipf("UDP sockets are forbidden here (%v): the live workload and the wire probes cannot run", err)
	}
	sp, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program has %d", len(sp.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if sp.Workloads[i].Name != w.name {
			t.Errorf("BENCHMARK.json workload %d is %q, the program's is %q", i, sp.Workloads[i].Name, w.name)
		}
	}
	start := time.Now()
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			rec, err := runWorkload(w, 7, toySizes, 0, traced, "")
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !rec.Correct || rec.Failed != 0 || rec.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d notes=%v",
					w.name, traced, rec.Correct, rec.Attempted, rec.Failed, rec.Notes)
			}
			declared := sp.EndToEnd
			if traced {
				declared = sp.PerLayer
			}
			if len(rec.Metrics) != len(declared) {
				t.Errorf("%s traced=%v: %d metrics emitted, %d declared", w.name, traced, len(rec.Metrics), len(declared))
			}
			seen := map[string]bool{}
			for _, d := range declared {
				if seen[d.Name] {
					t.Errorf("BENCHMARK.json declares %q twice", d.Name)
				}
				seen[d.Name] = true
				m, ok := rec.Metrics[d.Name]
				if !ok {
					t.Errorf("%s traced=%v: declared metric %q not emitted", w.name, traced, d.Name)
					continue
				}
				if m.Unit != d.Unit {
					t.Errorf("%s: %s has unit %q, declared %q", w.name, d.Name, m.Unit, d.Unit)
				}
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s: %s = %v is not finite", w.name, d.Name, m.Value)
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v must be positive", w.name, d.Name, m.Value)
				}
			}
		}
	}
	t.Logf("toy-size smoke took %v", time.Since(start)) // a few seconds; ten times that under -race
}

// TestPercentileRule pins the rule that a percentile is reported only
// with at least ten samples beyond it, and that it is the named one.
func TestPercentileRule(t *testing.T) {
	ramp := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: percentile must not depend on order
		}
		return xs
	}
	for _, c := range []struct {
		n     int
		p     float64
		value float64
		ok    bool
	}{
		{19, 50, 0, false}, {20, 50, 10, true},
		{999, 99, 0, false}, {1000, 99, 990, true},
		{5_000, 99, 4950, true}, {20_000, 99, 19_800, true}, // contract sizes: p99, not a higher one
		{9_999, 99.9, 0, false}, {10_000, 99.9, 9990, true},
	} {
		v, ok := percentile(ramp(c.n), c.p)
		if ok != c.ok || v != c.value {
			t.Errorf("percentile(%d samples, p%v) = %v, %v; want %v, %v", c.n, c.p, v, ok, c.value, c.ok)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to the values
// statistics.quantiles(xs, n=4) returns, since that is what the
// benchmark's spread is judged by.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 4.5},
		{[]float64{2, 1}, 0.75, 2.25},
	} {
		q1, q3 := quartiles(c.xs)
		if q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if s := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); s != 1 {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", s)
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Name: "root", Clock: clockHost, Start: 0, End: 10},
		{ID: 2, Parent: 1, Name: "a", Clock: clockHost, Start: 1, End: 3},
		{ID: 3, Parent: 1, Name: "a", Clock: clockHost, Start: 2, End: 5},       // overlaps span 2
		{ID: 4, Parent: 1, Name: "b", Clock: clockHost, Start: 9, End: 12},      // runs past the parent
		{ID: 5, Parent: 1, Name: "sim", Clock: clockSim, Start: 0, End: 10_000}, // other clock: ignored
		{ID: 6, Parent: 3, Name: "c", Clock: clockHost, Start: 2.5, End: 3},
		{ID: 7, Parent: 0, Name: "root", Clock: clockHost, Start: 20, End: 21},
	}
	self := selfTimes(spans)
	// Children cover [1,5] and [9,10] of the root: 5 of its 10 seconds.
	for id, want := range map[int]float64{1: 5, 2: 2, 3: 2.5, 4: 3, 6: 0.5, 7: 1} {
		if got := self[id]; math.Abs(got-want) > 1e-12 {
			t.Errorf("self time of span %d = %v, want %v", id, got, want)
		}
	}
	if _, ok := self[5]; ok {
		t.Error("sim-clock span has a host self time")
	}
	by := selfByName(spans, 1)
	if by["a"] != 4.5 || by["b"] != 3 || by["c"] != 0.5 || by["root"] != 5 {
		t.Errorf("selfByName under span 1 = %v; want a=4.5 b=3 c=0.5 root=5 (span 7 is outside)", by)
	}
}

func TestRegressed(t *testing.T) {
	for _, c := range []struct {
		better             string
		bound, base, value float64
		want               bool
	}{
		{"lower", 0.15, 10, 11.6, true},
		{"lower", 0.15, 10, 11.4, false},
		{"lower", 0.15, 10, 5, false}, // an improvement is never a regression
		{"higher", 0.15, 100, 84, true},
		{"higher", 0.15, 100, 86, false},
		{"higher", 0.15, 100, 300, false},
		{"lower", 0, 10, 10, false},
		{"lower", 0.15, 0, 5, false}, // no share of a zero base
	} {
		if got := regressed(c.better, c.bound, c.base, c.value); got != c.want {
			t.Errorf("regressed(%s, %v, base %v, value %v) = %v, want %v",
				c.better, c.bound, c.base, c.value, got, c.want)
		}
	}
}

// TestExactFloor pins the gate on structured lookups: up to one inexact
// answer in a thousand is the overlays' own behaviour, more is not.
func TestExactFloor(t *testing.T) {
	for _, c := range []struct {
		ok, queries uint64
		want        bool
	}{
		{10_000, 10_000, true}, {9_999, 10_000, true}, {9_990, 10_000, true}, {9_989, 10_000, false},
		{200, 200, true}, {199, 200, false}, // toy size: a single inexact lookup is already 0.5%
	} {
		if got := exactEnough(c.ok, c.queries); got != c.want {
			t.Errorf("exactEnough(%d of %d) = %v, want %v", c.ok, c.queries, got, c.want)
		}
	}
}

func TestLayerOfFunc(t *testing.T) {
	for name, want := range map[string]string{
		"unap2p/internal/sim.(*Kernel).Run":                       "sim",
		"unap2p/internal/sim.eventHeap.Less":                      "sim",
		"unap2p/internal/overlay/gnutella.(*Overlay).forwardPing": "overlay",
		"unap2p/internal/transport.(*Transport).Send.func1":       "transport",
		"unap2p/internal/topology.TransitStub":                    "other",
		"main.(*megaInstance).run":                                "other",
		"runtime.mallocgc":                                        "",
		"container/heap.down":                                     "",
	} {
		if got := layerOfFunc(name); got != want {
			t.Errorf("layerOfFunc(%q) = %q, want %q", name, got, want)
		}
	}
}

// TestCPUProfileChargesLayer profiles a loop that only drives a
// sim.Kernel and checks the decoded samples land on the sim layer — the
// heap work under container/heap included, since the innermost
// repository frame above it is the kernel's.
func TestCPUProfileChargesLayer(t *testing.T) {
	var p cpuProfile
	if err := p.start(); err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	k := sim.NewKernel()
	for start := time.Now(); time.Since(start) < 300*time.Millisecond; {
		for i := 0; i < 1000; i++ {
			k.Schedule(sim.Duration(i%97), func() {})
		}
		k.Drain()
	}
	if err := p.stop(); err != nil {
		t.Fatal(err)
	}
	sh := p.shares()
	if len(sh) != len(cpuLayers) {
		t.Fatalf("%d shares for %d layers", len(sh), len(cpuLayers))
	}
	var total float64
	for _, v := range sh {
		total += v
	}
	if total == 0 {
		t.Skip("the profiler delivered no samples")
	}
	// Under -race part of the samples end in the race runtime, whose
	// stacks do not unwind into Go frames; they count as "runtime".
	if sim, rt := sh["cpu_share.sim"], sh["cpu_share.runtime"]; sim == 0 || math.Abs(sim+rt-1) > 1e-9 {
		t.Errorf("shares = %v; want sim above 0 and everything else in runtime", sh)
	}
}
