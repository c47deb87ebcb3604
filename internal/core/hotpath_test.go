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
// an admission-ordered key list kept exactly in step with the map.
type modelCache struct {
	capacity int
	m        map[cacheKey]float64
	order    []cacheKey

	hits, misses, evictions uint64
}

func (c *modelCache) get(client, peer underlay.HostID) (float64, bool) {
	score, ok := c.m[cacheKey{client, peer}]
	if ok {
		c.hits++
	} else {
		c.misses++
	}
	return score, ok
}

func (c *modelCache) put(client, peer underlay.HostID, score float64) {
	k := cacheKey{client, peer}
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

// TestCacheMatchesModel drives the ring cache and the model through the
// same random get/put sequences; every hit, miss and eviction must agree.
func TestCacheMatchesModel(t *testing.T) {
	for _, cfg := range []CacheConfig{{Capacity: 8}, {Capacity: 1}} {
		r := rand.New(rand.NewSource(int64(cfg.Capacity)))
		c := newScoreCache(cfg)
		m := &modelCache{capacity: cfg.Capacity, m: map[cacheKey]float64{}}
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
			}
			if len(c.m) != len(m.m) || c.hits != m.hits || c.misses != m.misses || c.evictions != m.evictions {
				t.Fatalf("%+v op %d: stats diverge from the model: size %d/%d hits %d/%d misses %d/%d evictions %d/%d",
					cfg, op, len(c.m), len(m.m), c.hits, m.hits, c.misses, m.misses, c.evictions, m.evictions)
			}
		}
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
