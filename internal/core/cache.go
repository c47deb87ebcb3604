package core

import (
	"fmt"

	"unap2p/internal/metrics"
	"unap2p/internal/underlay"
)

// CacheConfig sizes the memoized score cache of an Engine.
type CacheConfig struct {
	// Capacity is the maximum number of (client, peer) pairs kept; when
	// full, the oldest entry is evicted (FIFO). Capacity <= 0 disables
	// caching.
	Capacity int
}

// CacheStats is a point-in-time snapshot of cache effectiveness.
type CacheStats struct {
	Hits, Misses uint64
	Evictions    uint64
	Size         int
}

func (s CacheStats) String() string {
	return fmt.Sprintf("hits=%d misses=%d evictions=%d size=%d",
		s.Hits, s.Misses, s.Evictions, s.Size)
}

type cacheKey [2]underlay.HostID

// scoreCache memoizes Engine.Score per directional (client, peer) pair.
// An entry leaves only by FIFO eviction at capacity, so the admission
// queue is a ring of exactly Capacity keys that holds the map's key set
// in admission order.
type scoreCache struct {
	m    map[cacheKey]float64
	ring []cacheKey // ring[:len(m)] while filling, all of it once full
	head int        // index of the oldest key

	hits, misses, evictions uint64
}

func newScoreCache(cfg CacheConfig) *scoreCache {
	return &scoreCache{
		m:    make(map[cacheKey]float64, cfg.Capacity),
		ring: make([]cacheKey, cfg.Capacity),
	}
}

func (c *scoreCache) get(client, peer underlay.HostID) (float64, bool) {
	score, ok := c.m[cacheKey{client, peer}]
	if ok {
		c.hits++
	} else {
		c.misses++
	}
	return score, ok
}

func (c *scoreCache) put(client, peer underlay.HostID, score float64) {
	k := cacheKey{client, peer}
	if _, ok := c.m[k]; !ok {
		if len(c.m) < len(c.ring) { // still filling: head has not moved
			c.ring[len(c.m)] = k
		} else { // full: the new key takes the evicted head's slot
			delete(c.m, c.ring[c.head])
			c.evictions++
			c.ring[c.head] = k
			c.head = (c.head + 1) % len(c.ring)
		}
	}
	c.m[k] = score
}

// EnableCache turns on score memoization with the given capacity. Only
// enable it when every registered estimator is a pure function of its
// inputs at ranking time (coordinates, registry lookups, ground-truth
// measurements); estimators that charge per-query traffic would
// under-report overhead when served from cache — which is precisely the
// point, but must be a deliberate choice. Returns the engine for
// chaining.
func (e *Engine) EnableCache(cfg CacheConfig) *Engine {
	if cfg.Capacity <= 0 {
		e.cache = nil
		return e
	}
	e.cache = newScoreCache(cfg)
	return e
}

// CacheStats reports hit/miss/eviction counts; the zero snapshot when
// caching is disabled.
func (e *Engine) CacheStats() CacheStats {
	if e.cache == nil {
		return CacheStats{}
	}
	c := e.cache
	return CacheStats{Hits: c.hits, Misses: c.misses, Evictions: c.evictions, Size: len(c.m)}
}

// RouteOverhead routes estimator collection overhead into cs: after every
// (uncached) Score, each estimator's Overhead() delta since the previous
// flush is added to the counter "awareness:<method>". Attaching the
// CounterSet the overlay's transport.Transport reports through puts
// collection cost next to protocol traffic — the unified accounting
// §5.4 asks for.
// Overhead incurred before attachment is not back-charged.
func (e *Engine) RouteOverhead(cs *metrics.CounterSet) {
	e.routed = cs
	e.overhead = e.overhead[:0]
	e.flushOverhead()
}

// OverheadCounterName returns the counter name RouteOverhead charges for
// a collection method.
func OverheadCounterName(m Method) string { return "awareness:" + m.String() }

// overheadRoute is one estimator's overhead accounting state.
type overheadRoute struct {
	// last is the estimator's cumulative Overhead at the previous flush.
	last uint64
	// ctr is the estimator's counter in Engine.routed, resolved at its
	// first charge: a method that never costs anything registers nothing.
	ctr *metrics.Counter
}

func (e *Engine) flushOverhead() {
	// Estimators not seen before (all of them right after RouteOverhead,
	// later ones lazily) only snapshot, so their pre-existing overhead is
	// not back-charged.
	for i := len(e.overhead); i < len(e.estimators); i++ {
		e.overhead = append(e.overhead, overheadRoute{last: e.estimators[i].Overhead()})
	}
	for i, est := range e.estimators {
		o := &e.overhead[i]
		if cur := est.Overhead(); cur > o.last {
			if o.ctr == nil {
				o.ctr = e.routed.Get(OverheadCounterName(est.Method()))
			}
			o.ctr.Add(cur - o.last)
			o.last = cur
		}
	}
}
