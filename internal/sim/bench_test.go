package sim

import "testing"

// BenchmarkKernelThroughput measures raw event processing: schedule-and-
// fire chains, the hot loop under every overlay simulation.
func BenchmarkKernelThroughput(b *testing.B) {
	k := NewKernel()
	var tick func()
	n := 0
	tick = func() {
		n++
		if n < b.N {
			k.Schedule(1, tick)
		}
	}
	b.ResetTimer()
	k.Schedule(1, tick)
	k.Drain()
	if n != b.N {
		b.Fatalf("processed %d of %d", n, b.N)
	}
}

// BenchmarkKernelFanout measures heap behaviour with many pending events.
func BenchmarkKernelFanout(b *testing.B) {
	for i := 0; i < b.N; i++ {
		k := NewKernel()
		for j := 0; j < 1000; j++ {
			k.Schedule(Duration(j%97), func() {})
		}
		k.Drain()
	}
}

// BenchmarkStreamDerivation measures named-substream creation.
func BenchmarkStreamDerivation(b *testing.B) {
	s := NewSource(1)
	for i := 0; i < b.N; i++ {
		_ = s.Stream("component")
	}
}

// BenchmarkKernelSchedule measures the schedule/fire round trip in
// steady state, where every schedule reuses a pooled event struct. The
// kernel hot loop must not allocate: see TestKernelScheduleZeroAlloc for
// the hard assertion.
func BenchmarkKernelSchedule(b *testing.B) {
	k := NewKernel()
	// Warm the pool so the timed region is pure steady state.
	for j := 0; j < 64; j++ {
		k.Schedule(Duration(j), func() {})
	}
	k.Drain()
	b.ReportAllocs()
	b.ResetTimer()
	var tick func()
	n := 0
	tick = func() {
		n++
		if n < b.N {
			k.Schedule(1, tick)
		}
	}
	k.Schedule(1, tick)
	k.Drain()
	if n != b.N {
		b.Fatalf("processed %d of %d", n, b.N)
	}
}

// TestKernelScheduleZeroAlloc pins the satellite requirement directly:
// steady-state schedule+fire performs zero allocations per event.
func TestKernelScheduleZeroAlloc(t *testing.T) {
	k := NewKernel()
	fn := func() {}
	for j := 0; j < 64; j++ {
		k.Schedule(Duration(j%7), fn)
	}
	k.Drain()
	allocs := testing.AllocsPerRun(1000, func() {
		for j := 0; j < 32; j++ {
			k.Schedule(Duration(j%11), fn)
		}
		k.Drain()
	})
	if allocs != 0 {
		t.Fatalf("steady-state schedule+drain allocates %.1f/run, want 0", allocs)
	}
}

// holdDepth is the queue depth the hold model keeps: the depth
// mega-flood's shards run at (max queue ≈ 34 k; paper-unstructured
// reaches 103 k), three orders above the other kernel benchmarks.
const holdDepth = 32768

// newHold builds the classic hold model: a kernel pre-filled with
// holdDepth events at hashed delays, each of which reschedules itself
// when it fires, so every operation is one pop plus one schedule at a
// constant depth. hold(n) fires exactly n events.
func newHold() (k *Kernel, hold func(n int)) {
	k = NewKernel()
	var h uint64
	delay := func() Duration {
		h = Mix64(h + splitmixGamma)
		return Duration(h>>44) / 1024 // [0, 1024) ms in 2^-10 steps
	}
	left := 0
	var tick func()
	tick = func() {
		if left--; left == 0 {
			k.Stop()
		}
		k.Schedule(delay(), tick)
	}
	for i := 0; i < holdDepth; i++ {
		k.Schedule(delay(), tick)
	}
	return k, func(n int) {
		left = n
		k.Run(Forever)
	}
}

// BenchmarkKernelHold prices pop+schedule at the depth the benchmark
// workloads hold the queue at.
func BenchmarkKernelHold(b *testing.B) {
	_, hold := newHold()
	hold(holdDepth) // every event fired once: the pool is in steady state
	b.ReportAllocs()
	b.ResetTimer()
	hold(b.N)
}

// TestKernelHoldZeroAlloc is TestKernelScheduleZeroAlloc at workload
// depth.
func TestKernelHoldZeroAlloc(t *testing.T) {
	k, hold := newHold()
	hold(holdDepth)
	if allocs := testing.AllocsPerRun(10, func() { hold(4096) }); allocs != 0 {
		t.Fatalf("hold at depth %d allocates %.1f per 4096 events, want 0", holdDepth, allocs)
	}
	if k.Pending() != holdDepth || k.MaxQueue() != holdDepth {
		t.Fatalf("hold drifted: pending %d, max %d, want %d", k.Pending(), k.MaxQueue(), holdDepth)
	}
}
