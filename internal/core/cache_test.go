package core

import (
	"testing"

	"unap2p/internal/metrics"
	"unap2p/internal/underlay"
)

// countingEngine returns an engine whose single estimator counts its
// evaluations, over the given net.
func countingEngine(net *underlay.Network) (*Engine, *FuncEstimator) {
	est := &FuncEstimator{K: Latency, M: ExplicitMeasurement,
		F: func(a, b *underlay.Host) (float64, bool) {
			return float64(net.RTT(a, b)), true
		}}
	return NewEngine().Add(est, 1), est
}

func TestCacheMemoizesScores(t *testing.T) {
	net := buildNet(t)
	eng, est := countingEngine(net)
	eng.EnableCache(CacheConfig{Capacity: 64})
	a, b := net.Hosts()[0], net.Hosts()[1]
	s1 := eng.Score(a, b)
	s2 := eng.Score(a, b)
	if s1 != s2 {
		t.Fatalf("cached score %v != first score %v", s2, s1)
	}
	if est.Overhead() != 1 {
		t.Fatalf("estimator evaluated %d times, want 1", est.Overhead())
	}
	st := eng.CacheStats()
	if st.Hits != 1 || st.Misses != 1 || st.Size != 1 {
		t.Fatalf("stats = %v", st)
	}
	// The pair is directional: (b, a) is its own entry.
	eng.Score(b, a)
	if est.Overhead() != 2 {
		t.Fatalf("reverse pair served from cache (overhead %d)", est.Overhead())
	}
}

func TestCacheFIFOEviction(t *testing.T) {
	net := buildNet(t)
	eng, est := countingEngine(net)
	eng.EnableCache(CacheConfig{Capacity: 2})
	h := net.Hosts()
	eng.Score(h[0], h[1]) // fills slot 1
	eng.Score(h[0], h[2]) // fills slot 2
	eng.Score(h[0], h[3]) // evicts (0,1)
	if st := eng.CacheStats(); st.Evictions != 1 || st.Size != 2 {
		t.Fatalf("stats = %v", st)
	}
	eng.Score(h[0], h[1]) // must recompute
	if est.Overhead() != 4 {
		t.Fatalf("evicted entry served from cache (overhead %d)", est.Overhead())
	}
}

func TestRouteOverheadChargesCounters(t *testing.T) {
	net := buildNet(t)
	eng, est := countingEngine(net)
	cs := metrics.NewCounterSet()
	a, b := net.Hosts()[0], net.Hosts()[1]
	eng.Score(a, b) // pre-attachment overhead must not be back-charged
	eng.RouteOverhead(cs)
	eng.Score(a, b)
	eng.Score(a, net.Hosts()[2])
	name := OverheadCounterName(ExplicitMeasurement)
	if got := cs.Value(name); got != 2 {
		t.Fatalf("counter %q = %d, want 2", name, got)
	}
	// Cache hits skip the estimator entirely: no new overhead flushed.
	eng.EnableCache(CacheConfig{Capacity: 8})
	eng.Score(a, b) // miss (cache fresh), charged
	eng.Score(a, b) // hit, free
	if got := cs.Value(name); got != 3 {
		t.Fatalf("counter after cache = %d, want 3", got)
	}
	if est.Overhead() != 4 {
		t.Fatalf("estimator overhead = %d, want 4", est.Overhead())
	}
}

func TestEnableCacheZeroCapacityDisables(t *testing.T) {
	net := buildNet(t)
	eng, est := countingEngine(net)
	eng.EnableCache(CacheConfig{Capacity: 8})
	eng.EnableCache(CacheConfig{Capacity: 0})
	a, b := net.Hosts()[0], net.Hosts()[1]
	eng.Score(a, b)
	eng.Score(a, b)
	if est.Overhead() != 2 {
		t.Fatalf("disabled cache still memoized (overhead %d)", est.Overhead())
	}
	if st := eng.CacheStats(); st != (CacheStats{}) {
		t.Fatalf("disabled cache reports stats %v", st)
	}
}
