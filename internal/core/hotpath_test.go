package core

import (
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"unap2p/internal/metrics"
	"unap2p/internal/underlay"
)

// modelKey is the model's pair key: the two ids side by side, no packing.
type modelKey [2]underlay.HostID

// modelCache is the score cache as specified, written for obviousness:
// a map and an admission-ordered key list kept exactly in step.
type modelCache struct {
	capacity int
	m        map[modelKey]float64
	order    []modelKey

	hits, misses, evictions uint64
}

func (c *modelCache) get(client, peer underlay.HostID) (float64, bool) {
	score, ok := c.m[modelKey{client, peer}]
	if ok {
		c.hits++
	} else {
		c.misses++
	}
	return score, ok
}

func (c *modelCache) put(client, peer underlay.HostID, score float64) {
	k := modelKey{client, peer}
	if _, ok := c.m[k]; !ok {
		for len(c.m) >= c.capacity {
			delete(c.m, c.order[0])
			c.order = c.order[1:]
			c.evictions++
		}
		c.order = append(c.order, k)
	}
	c.m[k] = score
}

// TestCacheMatchesModel drives the table cache and the model through the
// same random get/put sequences; every hit, miss, eviction and the size
// must agree. The id ranges are several times the capacity, so the cache
// runs full, probe runs wrap the table's end and every eviction exercises
// backward-shift deletion. The second run mixes low ids with ids just
// below and above 2^31, where a sign-extending or overlapping pack would
// alias two pairs.
func TestCacheMatchesModel(t *testing.T) {
	for _, capacity := range []int{1, 8, 300, 5000} {
		for _, base := range []underlay.HostID{0, 1<<31 - 3} {
			cfg := CacheConfig{Capacity: capacity}
			r := rand.New(rand.NewSource(int64(capacity) + int64(base)))
			c := newScoreCache(cfg)
			m := &modelCache{capacity: capacity, m: map[modelKey]float64{}}
			// span² distinct pairs, about four times the capacity.
			span := 2
			for span*span < 4*capacity {
				span++
			}
			id := func() underlay.HostID {
				if base != 0 && r.Intn(2) == 0 { // low ids beside high ones
					return underlay.HostID(r.Intn(span))
				}
				return base + underlay.HostID(r.Intn(span))
			}
			for op := 0; op < 40*capacity+20000; op++ {
				a, b := id(), id()
				switch x := r.Intn(100); {
				case x < 45:
					gs, gok := c.get(a, b)
					ws, wok := m.get(a, b)
					if gs != ws || gok != wok {
						t.Fatalf("%+v base %d op %d: get(%d,%d) = %v,%v; model %v,%v", cfg, base, op, a, b, gs, gok, ws, wok)
					}
				case x < 90:
					c.put(a, b, float64(op))
					m.put(a, b, float64(op))
				}
				if c.size != len(m.m) || c.hits != m.hits || c.misses != m.misses || c.evictions != m.evictions {
					t.Fatalf("%+v base %d op %d: stats diverge from the model: size %d/%d hits %d/%d misses %d/%d evictions %d/%d",
						cfg, base, op, c.size, len(m.m), c.hits, m.hits, c.misses, m.misses, c.evictions, m.evictions)
				}
			}
			if c.evictions == 0 {
				t.Fatalf("%+v base %d: no eviction: the run never reached the deletion path", cfg, base)
			}
			full := 0
			for _, s := range c.slots {
				if s.full {
					full++
				}
			}
			if full != c.size {
				t.Fatalf("%+v base %d: %d table slots in use for %d entries", cfg, base, full, c.size)
			}
		}
	}
}

// A host id that does not fit 32 bits cannot be packed without aliasing
// another pair, so put refuses it.
func TestCachePutPanicsOnWideID(t *testing.T) {
	for _, pair := range [][2]underlay.HostID{{1 << 32, 0}, {0, 1 << 32}, {1<<32 + 5, 5}, {-1, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("put(%d, %d) did not panic", pair[0], pair[1])
				}
			}()
			newScoreCache(CacheConfig{Capacity: 8}).put(pair[0], pair[1], 1)
		}()
	}
}

// refRank is the Rank this package used to run: scores in a map, hashed
// again inside the comparator.
func refRank(e *Engine, client *underlay.Host, candidates []underlay.HostID,
	hostOf func(underlay.HostID) *underlay.Host) []underlay.HostID {
	out := append([]underlay.HostID(nil), candidates...)
	scores := make(map[underlay.HostID]float64, len(out))
	for _, id := range out {
		scores[id] = e.Score(client, hostOf(id))
	}
	sort.SliceStable(out, func(i, j int) bool { return scores[out[i]] < scores[out[j]] })
	return out
}

func TestQuickRankMatchesReference(t *testing.T) {
	net := buildNet(t)
	hosts := net.Hosts()
	// ASHop scores tie heavily, so stability is what decides most orders.
	for _, sel := range []*EngineSelector{ASHopSelector(net), RTTSelector(net)} {
		f := func(seed int64, clientIdx, n uint8) bool {
			r := rand.New(rand.NewSource(seed))
			var cands []underlay.HostID
			for _, i := range r.Perm(len(hosts))[:int(n)%len(hosts)] {
				cands = append(cands, hosts[i].ID)
			}
			client := hosts[int(clientIdx)%len(hosts)]
			in := append([]underlay.HostID(nil), cands...)
			got := sel.E.Rank(client, cands, net.Host)
			return reflect.DeepEqual(got, refRank(sel.E, client, cands, net.Host)) &&
				reflect.DeepEqual(cands, in) // input untouched
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
			t.Fatal(err)
		}
	}
}

func TestRankAndScoreAllocs(t *testing.T) {
	net := buildNet(t)
	hosts := net.Hosts()
	var cands []underlay.HostID
	for _, h := range hosts[1:] {
		cands = append(cands, h.ID)
	}
	for name, sel := range map[string]*EngineSelector{
		"cached":   ASHopSelector(net),
		"uncached": RTTSelector(net),
	} {
		if name == "cached" {
			sel.E.EnableCache(CacheConfig{Capacity: 1024})
		}
		sel.E.RouteOverhead(metrics.NewCounterSet())
		sel.Rank(hosts[0], cands) // scratch, cache and counters warm
		if a := testing.AllocsPerRun(100, func() { sel.Rank(hosts[0], cands) }); a > 1 {
			t.Errorf("%s Rank allocates %.0f times per call, want ≤ 1 (the returned slice)", name, a)
		}
		if a := testing.AllocsPerRun(100, func() { sel.E.Score(hosts[0], hosts[1]) }); a != 0 {
			t.Errorf("%s Score with routed overhead allocates %.0f times per call, want 0", name, a)
		}
	}
}

// Rank scratch is per Engine: two engines ranking from two goroutines
// share nothing (run under -race) and each returns what it returns alone.
func TestRankScratchIsPerEngine(t *testing.T) {
	net := buildNet(t)
	hosts := net.Hosts()
	var cands []underlay.HostID
	for _, h := range hosts {
		cands = append(cands, h.ID)
	}
	sels := []*EngineSelector{ASHopSelector(net), RTTSelector(net)}
	var want [2][][]underlay.HostID
	for i, sel := range sels {
		for _, h := range hosts {
			want[i] = append(want[i], refRank(sel.E, h, cands, net.Host))
		}
	}
	var wg sync.WaitGroup
	for i, sel := range sels {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 50; round++ {
				for j, h := range hosts {
					if got, _ := sel.Rank(h, cands); !reflect.DeepEqual(got, want[i][j]) {
						t.Errorf("engine %d, client %d: concurrent Rank diverges", i, j)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// freeEstimator answers without ever incurring overhead.
type freeEstimator struct{}

func (freeEstimator) Kind() Kind                                   { return ISPLocation }
func (freeEstimator) Method() Method                               { return IPToISPMapping }
func (freeEstimator) Estimate(_, _ *underlay.Host) (float64, bool) { return 0, true }
func (freeEstimator) Overhead() uint64                             { return 0 }

// Counters are resolved per estimator at the first charge: one added
// after RouteOverhead is charged under its own name without back-charge,
// and a method that never costs anything registers no counter at all (the
// counter names in run files are those of methods that were paid for).
func TestRouteOverheadResolvesCountersLazily(t *testing.T) {
	net := buildNet(t)
	eng, _ := countingEngine(net)
	eng.Add(freeEstimator{}, 1)
	cs := metrics.NewCounterSet()
	eng.RouteOverhead(cs)
	if snap := cs.Snapshot(); len(snap) != 0 {
		t.Fatalf("RouteOverhead registered %v before any charge", snap)
	}
	a, b := net.Hosts()[0], net.Hosts()[1]
	late := &FuncEstimator{K: Latency, M: PredictionMethod,
		F: func(_, _ *underlay.Host) (float64, bool) { return 1, true }}
	late.Estimate(a, b) // overhead from before it joined the engine
	eng.Add(late, 1)
	eng.Score(a, b) // the flush that first sees `late` only snapshots it
	eng.Score(a, b)
	want := map[string]uint64{
		OverheadCounterName(ExplicitMeasurement): 2,
		OverheadCounterName(PredictionMethod):    1,
	}
	if got := cs.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Fatalf("counters = %v, want %v", got, want)
	}
}
