// Package metrics collects the measurements the unap2p experiments report:
// message counters, latency distributions, AS-pair traffic matrices, and
// overlay-clustering statistics used to quantify "locality of traffic".
//
// Counter, CounterSet and Histogram are shared with the live plane and
// are safe for concurrent use: the real-socket transport
// (internal/nettransport) updates them from its receive loop while
// telemetry.Serve scrapes them live, so each takes an atomic or a mutex
// fast path. TrafficMatrix and Dist belong to the simulation goroutine
// and take no lock: no live code builds either, and the live /metrics
// view renders a snapshot taken on that goroutine.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a named monotone event counter, safe for concurrent use.
type Counter struct {
	name string
	n    atomic.Uint64
}

// NewCounter returns a counter with the given name.
func NewCounter(name string) *Counter { return &Counter{name: name} }

// Add increments the counter by d (d may be > 1 for batched events).
func (c *Counter) Add(d uint64) { c.n.Add(d) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.n.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.n.Load() }

func (c *Counter) String() string { return fmt.Sprintf("%s=%d", c.name, c.n.Load()) }

// CounterSet groups named counters, creating them on first use. Reads
// (the live engines' per-lookup and per-request Msgs.Get calls; the
// simulated transport caches each type's *Counter instead) go through an
// atomic copy-on-write map and cost the same as a plain map lookup; only
// the first touch of a new name takes the write lock and clones the map.
type CounterSet struct {
	mu sync.Mutex // serializes map replacement on first-touch creation
	m  atomic.Pointer[map[string]*Counter]
}

// NewCounterSet returns an empty set.
func NewCounterSet() *CounterSet {
	s := &CounterSet{}
	m := make(map[string]*Counter)
	s.m.Store(&m)
	return s
}

// Get returns the counter with the given name, creating it at zero.
func (s *CounterSet) Get(name string) *Counter {
	if c, ok := (*s.m.Load())[name]; ok {
		return c
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	cur := *s.m.Load()
	if c, ok := cur[name]; ok { // lost the creation race
		return c
	}
	next := make(map[string]*Counter, len(cur)+1)
	for k, v := range cur {
		next[k] = v
	}
	c := NewCounter(name)
	next[name] = c
	s.m.Store(&next)
	return c
}

// Value returns the count for name (zero if never touched).
func (s *CounterSet) Value(name string) uint64 {
	if c, ok := (*s.m.Load())[name]; ok {
		return c.Value()
	}
	return 0
}

// Dist accumulates a sample distribution with exact quantiles. Experiments
// are small enough (≤ a few million samples) that keeping the samples and
// sorting on demand is both simplest and exact. Unlike the fixed-footprint
// accumulators above, Dist is not goroutine-safe.
type Dist struct {
	samples []float64
	sorted  bool
	sum     float64
}

// NewDist returns an empty distribution.
func NewDist() *Dist { return &Dist{} }

// Observe records one sample.
func (d *Dist) Observe(v float64) {
	d.samples = append(d.samples, v)
	d.sorted = false
	d.sum += v
}

// N reports the number of samples.
func (d *Dist) N() int { return len(d.samples) }

// Mean reports the sample mean (0 for an empty distribution).
func (d *Dist) Mean() float64 {
	if len(d.samples) == 0 {
		return 0
	}
	return d.sum / float64(len(d.samples))
}

func (d *Dist) sortSamples() {
	if !d.sorted {
		sort.Float64s(d.samples)
		d.sorted = true
	}
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) using the nearest-rank
// method; q=0.95 gives the 95th percentile used in transit billing.
func (d *Dist) Quantile(q float64) float64 {
	if len(d.samples) == 0 {
		return 0
	}
	d.sortSamples()
	if q <= 0 {
		return d.samples[0]
	}
	if q >= 1 {
		return d.samples[len(d.samples)-1]
	}
	rank := int(math.Ceil(q*float64(len(d.samples)))) - 1
	if rank < 0 {
		rank = 0
	}
	return d.samples[rank]
}

// Max returns the largest sample (0 if empty).
func (d *Dist) Max() float64 {
	if len(d.samples) == 0 {
		return 0
	}
	d.sortSamples()
	return d.samples[len(d.samples)-1]
}

func (d *Dist) String() string {
	return fmt.Sprintf("n=%d mean=%.3f p50=%.3f p95=%.3f max=%.3f",
		d.N(), d.Mean(), d.Quantile(0.5), d.Quantile(0.95), d.Max())
}
