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

// modelCache is the score cache as specified, written for obviousness:
// an admission-ordered key list kept exactly in step with the map (aging
// out and invalidation remove the key from the list, O(n)).
type modelCache struct {
	cfg   CacheConfig
	m     map[cacheKey]cacheEntry
	order []cacheKey
	epoch uint64

	hits, misses, evictions, invalidations uint64
}

func (c *modelCache) unlist(k cacheKey) {
	for i, have := range c.order {
		if have == k {
			c.order = append(c.order[:i], c.order[i+1:]...)
			return
		}
	}
}

func (c *modelCache) get(client, peer underlay.HostID) (float64, bool) {
	k := cacheKey{client, peer}
	e, ok := c.m[k]
	if ok && (c.cfg.MaxAge == 0 || c.epoch < e.epoch+c.cfg.MaxAge) {
		c.hits++
		return e.score, true
	}
	if ok {
		delete(c.m, k)
		c.unlist(k)
	}
	c.misses++
	return 0, false
}

func (c *modelCache) put(client, peer underlay.HostID, score float64) {
	k := cacheKey{client, peer}
	if _, ok := c.m[k]; !ok {
		for len(c.m) >= c.cfg.Capacity {
			delete(c.m, c.order[0])
			c.order = c.order[1:]
			c.evictions++
		}
		c.order = append(c.order, k)
	}
	c.m[k] = cacheEntry{score: score, epoch: c.epoch}
}

func (c *modelCache) invalidate(id underlay.HostID) {
	for k := range c.m {
		if k[0] == id || k[1] == id {
			delete(c.m, k)
			c.unlist(k)
			c.invalidations++
		}
	}
}

// TestCacheMatchesModel drives the ring cache and the model through the
// same random get/put/invalidate/AdvanceEpoch sequences. The first
// configuration is capacity-only — what every experiment uses, and where
// the model is step for step the pre-ring implementation.
func TestCacheMatchesModel(t *testing.T) {
	for _, cfg := range []CacheConfig{{Capacity: 8}, {Capacity: 8, MaxAge: 2}, {Capacity: 1, MaxAge: 1}, {Capacity: 5, MaxAge: 3}} {
		r := rand.New(rand.NewSource(int64(cfg.Capacity)))
		c := newScoreCache(cfg)
		m := &modelCache{cfg: cfg, m: map[cacheKey]cacheEntry{}}
		for op := 0; op < 20000; op++ {
			a, b := underlay.HostID(r.Intn(6)), underlay.HostID(r.Intn(6))
			switch x := r.Intn(100); {
			case x < 45:
				gs, gok := c.get(a, b)
				ws, wok := m.get(a, b)
				if gs != ws || gok != wok {
					t.Fatalf("%+v op %d: get(%d,%d) = %v,%v; model %v,%v", cfg, op, a, b, gs, gok, ws, wok)
				}
			case x < 90:
				c.put(a, b, float64(op))
				m.put(a, b, float64(op))
			case x < 95 && cfg.MaxAge > 0:
				c.invalidate(a)
				m.invalidate(a)
			case cfg.MaxAge > 0:
				c.epoch++
				m.epoch++
			}
			if len(c.m) != len(m.m) || c.hits != m.hits || c.misses != m.misses ||
				c.evictions != m.evictions || c.invalidations != m.invalidations {
				t.Fatalf("%+v op %d: stats diverge from the model: size %d/%d hits %d/%d misses %d/%d evictions %d/%d invalidations %d/%d",
					cfg, op, len(c.m), len(m.m), c.hits, m.hits, c.misses, m.misses,
					c.evictions, m.evictions, c.invalidations, m.invalidations)
			}
		}
	}
}

// An aged-out or invalidated entry used to leave its key queued, and the
// next put queued it again: with the map below Capacity nothing ever
// drained the queue. 100×Capacity age-and-readmit rounds must leave the
// queue where it started.
func TestCacheQueueStaysBounded(t *testing.T) {
	const capacity = 16
	c := newScoreCache(CacheConfig{Capacity: capacity, MaxAge: 1})
	for i := 0; i < 100*capacity; i++ {
		k := underlay.HostID(i % (capacity / 2)) // the map never reaches Capacity
		c.put(k, k+1, 1)
		c.epoch++
		if _, ok := c.get(k, k+1); ok {
			t.Fatal("entry outlived MaxAge")
		}
		c.put(k, k+1, 2)
		if i%7 == 0 {
			c.invalidate(k)
		}
		if c.n > len(c.ring) || len(c.ring) != 2*capacity {
			t.Fatalf("round %d: %d queued admissions in a ring of %d, want ≤ %d", i, c.n, len(c.ring), 2*capacity)
		}
	}
	if c.evictions != 0 {
		t.Fatalf("%d evictions with the map below Capacity", c.evictions)
	}
}

// A key re-admitted after aging out is the newest admission: the slot of
// its first admission, still queued ahead, must not evict it.
func TestCacheReadmittedKeyIsNewest(t *testing.T) {
	net := buildNet(t)
	eng, est := countingEngine(net)
	eng.EnableCache(CacheConfig{Capacity: 2, MaxAge: 1})
	h := net.Hosts()
	eng.Score(h[0], h[1]) // admissions: A
	eng.Score(h[0], h[2]) // A B
	eng.AdvanceEpoch()    // both aged out
	eng.Score(h[0], h[1]) // A re-admitted: B(stale) A
	eng.Score(h[0], h[3]) // at capacity: must evict B, not the fresh A
	before := est.Overhead()
	eng.Score(h[0], h[1])
	if est.Overhead() != before {
		t.Fatal("re-admitted entry was evicted by the slot of its earlier admission")
	}
	if st := eng.CacheStats(); st.Evictions != 1 || st.Size != 2 {
		t.Fatalf("stats = %v, want 1 eviction and size 2", st)
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
	if names := cs.Names(); len(names) != 0 {
		t.Fatalf("RouteOverhead registered %v before any charge", names)
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
