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

// cacheKey packs a directional (client, peer) pair into one word: client
// in the high half, peer in the low. Host ids are AddHost indices, so 32
// bits each is ample; an id that does not fit panics rather than alias
// another pair.
func cacheKey(client, peer underlay.HostID) uint64 {
	if uint64(client)>>32 != 0 || uint64(peer)>>32 != 0 {
		panic(fmt.Sprintf("core: score cache host ids (%d, %d) do not fit 32 bits", client, peer))
	}
	return uint64(client)<<32 | uint64(peer)
}

// cacheSlot is one cell of the open-addressed table.
type cacheSlot struct {
	key   uint64
	score float64
	full  bool
}

// scoreCache memoizes Engine.Score per directional (client, peer) pair.
// It is an open-addressed table (linear probing, backward-shift deletion,
// a power-of-two slot count of at least twice the capacity, so probe runs
// stay short and always end) beside a FIFO ring. An entry leaves only by
// FIFO eviction at capacity, so the ring holds exactly the table's key set
// in admission order.
type scoreCache struct {
	slots []cacheSlot
	shift uint     // 64 - log2(len(slots)): hash keeps the product's top bits
	ring  []uint64 // ring[:size] while filling, all of it once full
	head  int      // index of the oldest key
	size  int

	hits, misses, evictions uint64
}

func newScoreCache(cfg CacheConfig) *scoreCache {
	// At least 4 slots: put briefly holds Capacity+1 entries, and a probe
	// run must always end at an empty slot.
	shift := uint(62)
	for 1<<(64-shift) < 2*cfg.Capacity {
		shift--
	}
	return &scoreCache{
		slots: make([]cacheSlot, 1<<(64-shift)),
		shift: shift,
		ring:  make([]uint64, cfg.Capacity),
	}
}

// home is the key's preferred slot (Fibonacci hashing).
func (c *scoreCache) home(key uint64) int {
	return int((key * 0x9e3779b97f4a7c15) >> c.shift)
}

// find returns the slot holding key, or the empty slot that ends its
// probe run.
func (c *scoreCache) find(key uint64) *cacheSlot {
	mask := len(c.slots) - 1
	for i := c.home(key); ; i = (i + 1) & mask {
		if s := &c.slots[i]; !s.full || s.key == key {
			return s
		}
	}
}

func (c *scoreCache) get(client, peer underlay.HostID) (float64, bool) {
	s := c.find(cacheKey(client, peer))
	if s.full {
		c.hits++
		return s.score, true
	}
	c.misses++
	return 0, false
}

func (c *scoreCache) put(client, peer underlay.HostID, score float64) {
	k := cacheKey(client, peer)
	s := c.find(k)
	if s.full {
		s.score = score
		return
	}
	// The table has room for one entry past capacity, so the newcomer goes
	// in first and the evicted head leaves after.
	*s = cacheSlot{key: k, score: score, full: true}
	if c.size < len(c.ring) { // still filling: head has not moved
		c.ring[c.size] = k
		c.size++
		return
	}
	c.remove(c.ring[c.head])
	c.evictions++
	c.ring[c.head] = k
	c.head = (c.head + 1) % len(c.ring)
}

// remove deletes a present key by backward shift: each later entry of the
// probe run that the gap cuts off from its home moves back into the gap,
// so no tombstones are needed and lookups still stop at the first empty
// slot.
func (c *scoreCache) remove(key uint64) {
	mask := len(c.slots) - 1
	gap := c.home(key)
	for c.slots[gap].key != key || !c.slots[gap].full {
		gap = (gap + 1) & mask
	}
	for j := (gap + 1) & mask; c.slots[j].full; j = (j + 1) & mask {
		// The entry at j may fill the gap iff its home is not cyclically
		// in (gap, j].
		if (j-c.home(c.slots[j].key))&mask >= (j-gap)&mask {
			c.slots[gap] = c.slots[j]
			gap = j
		}
	}
	c.slots[gap] = cacheSlot{}
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
	return CacheStats{Hits: c.hits, Misses: c.misses, Evictions: c.evictions, Size: c.size}
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
