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
	// MaxAge is the number of epochs an entry stays servable: an entry
	// written at epoch E answers lookups while the current epoch is
	// below E+MaxAge and is recomputed afterwards. Zero means entries
	// never age out (they still fall to eviction and invalidation).
	MaxAge uint64
}

// CacheStats is a point-in-time snapshot of cache effectiveness.
type CacheStats struct {
	Hits, Misses  uint64
	Evictions     uint64
	Invalidations uint64
	Size          int
	Epoch         uint64
}

func (s CacheStats) String() string {
	return fmt.Sprintf("hits=%d misses=%d evictions=%d invalidations=%d size=%d epoch=%d",
		s.Hits, s.Misses, s.Evictions, s.Invalidations, s.Size, s.Epoch)
}

type cacheKey [2]underlay.HostID

type cacheEntry struct {
	score float64
	epoch uint64
	// seq numbers the admission that created the entry; the FIFO slot
	// carrying the same number is the one entitled to evict it.
	seq uint64
}

// fifoSlot records one admission.
type fifoSlot struct {
	k   cacheKey
	seq uint64
}

// scoreCache memoizes Engine.Score per directional (client, peer) pair.
// Entries leave the cache three ways: FIFO eviction at capacity, aging
// out after MaxAge epochs, and explicit invalidation on churn or
// mobility-handover events (the paper's §6 staleness concern: cached
// underlay information is only as good as its refresh policy).
//
// Admissions queue in a circular buffer of 2×Capacity slots. Aging out
// and invalidation delete the map entry only, orphaning its slot; an
// orphan (no entry, or an entry re-admitted under a later seq) is skipped
// when it reaches the head, and squeezed out when the buffer fills — at
// which point at least Capacity of the slots are orphans, so compaction
// is amortised O(1) per admission and never runs in capacity-only use.
type scoreCache struct {
	cfg   CacheConfig
	m     map[cacheKey]cacheEntry
	ring  []fifoSlot
	head  int // index of the oldest slot
	n     int // slots in use
	seq   uint64
	epoch uint64

	hits, misses, evictions, invalidations uint64
}

func newScoreCache(cfg CacheConfig) *scoreCache {
	return &scoreCache{
		cfg:  cfg,
		m:    make(map[cacheKey]cacheEntry, cfg.Capacity),
		ring: make([]fifoSlot, 2*cfg.Capacity),
	}
}

func (c *scoreCache) fresh(e cacheEntry) bool {
	return c.cfg.MaxAge == 0 || c.epoch < e.epoch+c.cfg.MaxAge
}

func (c *scoreCache) get(client, peer underlay.HostID) (float64, bool) {
	k := cacheKey{client, peer}
	e, ok := c.m[k]
	if ok && c.fresh(e) {
		c.hits++
		return e.score, true
	}
	if ok { // stale: drop so put re-admits it with the current epoch
		delete(c.m, k)
	}
	c.misses++
	return 0, false
}

// slot returns the i-th oldest slot in use.
func (c *scoreCache) slot(i int) *fifoSlot {
	if i += c.head; i >= len(c.ring) {
		i -= len(c.ring)
	}
	return &c.ring[i]
}

// live reports whether s is the newest admission of a key still cached.
func (c *scoreCache) live(s fifoSlot) bool {
	e, ok := c.m[s.k]
	return ok && e.seq == s.seq
}

func (c *scoreCache) put(client, peer underlay.HostID, score float64) {
	k := cacheKey{client, peer}
	e, ok := c.m[k]
	if !ok {
		for len(c.m) >= c.cfg.Capacity && c.n > 0 {
			old := *c.slot(0)
			c.head, c.n = (c.head+1)%len(c.ring), c.n-1
			if c.live(old) {
				delete(c.m, old.k)
				c.evictions++
			}
		}
		if c.n == len(c.ring) { // full of orphans: keep the live slots only
			kept := 0
			for i := 0; i < c.n; i++ {
				if s := *c.slot(i); c.live(s) {
					*c.slot(kept) = s
					kept++
				}
			}
			c.n = kept
		}
		c.seq++
		e.seq = c.seq
		*c.slot(c.n) = fifoSlot{k: k, seq: c.seq}
		c.n++
	}
	e.score, e.epoch = score, c.epoch
	c.m[k] = e
}

func (c *scoreCache) invalidate(id underlay.HostID) {
	for k := range c.m {
		if k[0] == id || k[1] == id {
			delete(c.m, k)
			c.invalidations++
		}
	}
}

// EnableCache turns on score memoization with the given capacity and
// staleness policy. Only enable it when every registered estimator is a
// pure function of its inputs at ranking time (coordinates, registry
// lookups, ground-truth measurements); estimators that charge per-query
// traffic would under-report overhead when served from cache — which is
// precisely the point, but must be a deliberate choice. Returns the
// engine for chaining.
func (e *Engine) EnableCache(cfg CacheConfig) *Engine {
	if cfg.Capacity <= 0 {
		e.cache = nil
		return e
	}
	e.cache = newScoreCache(cfg)
	return e
}

// AdvanceEpoch ages every cached score by one epoch. Overlays call it at
// natural refresh boundaries (a gossip round, a tracker re-announce, a
// streaming tick) so entries older than CacheConfig.MaxAge epochs are
// recomputed.
func (e *Engine) AdvanceEpoch() {
	if e.cache != nil {
		e.cache.epoch++
	}
}

// Invalidate drops every cached score involving the given host, as client
// or as peer. Wire it to churn joins/leaves and mobility handovers (see
// AttachChurn / AttachMobility): a peer that moved or rejoined has new
// underlay properties, and serving its old scores is the staleness
// failure mode of §6.
func (e *Engine) Invalidate(id underlay.HostID) {
	if e.cache != nil {
		e.cache.invalidate(id)
	}
}

// CacheStats reports hit/miss/eviction/invalidation counts; the zero
// snapshot when caching is disabled.
func (e *Engine) CacheStats() CacheStats {
	if e.cache == nil {
		return CacheStats{}
	}
	c := e.cache
	return CacheStats{
		Hits: c.hits, Misses: c.misses,
		Evictions: c.evictions, Invalidations: c.invalidations,
		Size: len(c.m), Epoch: c.epoch,
	}
}

// RouteOverhead routes estimator collection overhead into cs: after every
// (uncached) Score, each estimator's Overhead() delta since the previous
// flush is added to the counter "awareness:<method>". Attaching the same
// CounterSet a transport.Messenger reports through puts collection cost
// next to protocol traffic — the unified accounting §5.4 asks for.
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
