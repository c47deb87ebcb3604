package metrics

import (
	"fmt"
	"math"
	"strings"
	"sync/atomic"
)

// Histogram is a fixed-bucket histogram for high-volume observations such
// as per-message latencies. Unlike Dist it does not retain samples, so
// observing millions of values costs O(buckets) memory; the price is that
// quantiles are interpolated within bucket bounds rather than exact.
//
// A Histogram is safe for concurrent use. Every mutable field is updated
// atomically — bucket counts and n with plain atomic adds, the float
// accumulators (sum, min, max) with compare-and-swap on their bit
// patterns — so concurrent receive-loop writers never lose observations
// and live scrapes never race. Readers see each field atomically; a
// snapshot taken mid-observation may be ahead by the fields the writer
// has already stored (bounded by the in-flight observations), which is
// the usual monitoring contract.
type Histogram struct {
	bounds []float64     // ascending upper bounds; values > bounds[len-1] land in the overflow bucket
	counts []uint64      // len(bounds)+1, last is overflow; atomic access
	sum    atomic.Uint64 // math.Float64bits
	min    atomic.Uint64 // math.Float64bits
	max    atomic.Uint64 // math.Float64bits
}

// NewHistogram returns a histogram over the given ascending bucket upper
// bounds (an overflow bucket is added implicitly).
func NewHistogram(bounds []float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("metrics: histogram bounds must be ascending")
		}
	}
	h := &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]uint64, len(bounds)+1),
	}
	h.min.Store(math.Float64bits(math.Inf(1)))
	h.max.Store(math.Float64bits(math.Inf(-1)))
	return h
}

// NewLatencyHistogram returns a histogram with exponential bounds suited to
// simulated latencies in milliseconds: 1, 2, 4, … 16384 ms.
func NewLatencyHistogram() *Histogram {
	bounds := make([]float64, 15)
	for i := range bounds {
		bounds[i] = float64(uint64(1) << uint(i))
	}
	return NewHistogram(bounds)
}

// atomicAddFloat adds v to the float64 stored as bits in p.
func atomicAddFloat(p *atomic.Uint64, v float64) {
	for {
		old := p.Load()
		if p.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// atomicMinFloat lowers the float64 in p to v if v is smaller. The fast
// path is a plain load-and-compare: once the running minimum is below v
// no store (and no cache-line contention) happens at all.
func atomicMinFloat(p *atomic.Uint64, v float64) {
	for {
		old := p.Load()
		if math.Float64frombits(old) <= v {
			return
		}
		if p.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// atomicMaxFloat raises the float64 in p to v if v is larger.
func atomicMaxFloat(p *atomic.Uint64, v float64) {
	for {
		old := p.Load()
		if math.Float64frombits(old) >= v {
			return
		}
		if p.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Observe records one value. The observation count is carried entirely
// by the bucket vector (N sums it on read), so the write path is two
// atomic read-modify-writes plus the min/max fast-path loads.
func (h *Histogram) Observe(v float64) {
	atomic.AddUint64(&h.counts[h.bucket(v)], 1)
	atomicAddFloat(&h.sum, v)
	atomicMinFloat(&h.min, v)
	atomicMaxFloat(&h.max, v)
}

// bucket returns the index of the bucket containing v (binary search).
func (h *Histogram) bucket(v float64) int {
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if v <= h.bounds[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// N reports the number of observations (a sum over the bucket vector).
func (h *Histogram) N() uint64 {
	var n uint64
	for i := range h.counts {
		n += atomic.LoadUint64(&h.counts[i])
	}
	return n
}

// Sum reports the sum of all observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Mean reports the mean observation (0 when empty).
func (h *Histogram) Mean() float64 {
	n := h.N()
	if n == 0 {
		return 0
	}
	return h.Sum() / float64(n)
}

// Min returns the smallest observation (0 when empty).
func (h *Histogram) Min() float64 {
	if h.N() == 0 {
		return 0
	}
	return math.Float64frombits(h.min.Load())
}

// Max returns the largest observation (0 when empty).
func (h *Histogram) Max() float64 {
	if h.N() == 0 {
		return 0
	}
	return math.Float64frombits(h.max.Load())
}

// loadCounts copies the bucket counts atomically, returning the copy and
// its total — a self-consistent basis for quantile math even while
// writers are active.
func (h *Histogram) loadCounts() ([]uint64, uint64) {
	counts := make([]uint64, len(h.counts))
	var total uint64
	for i := range h.counts {
		counts[i] = atomic.LoadUint64(&h.counts[i])
		total += counts[i]
	}
	return counts, total
}

// Quantile approximates the q-quantile (0 ≤ q ≤ 1) by locating the bucket
// holding the target rank and interpolating linearly inside it.
func (h *Histogram) Quantile(q float64) float64 {
	counts, n := h.loadCounts()
	if n == 0 {
		return 0
	}
	if q <= 0 {
		return h.Min()
	}
	if q >= 1 {
		return h.Max()
	}
	min, max := math.Float64frombits(h.min.Load()), math.Float64frombits(h.max.Load())
	rank := q * float64(n)
	var cum float64
	for i, c := range counts {
		next := cum + float64(c)
		if next >= rank && c > 0 {
			// Interpolate inside the bucket, clamped to the observed
			// [min, max]: a bucket holding only the global min (or max)
			// must not yield values outside what was ever observed —
			// e.g. every quantile of a single-sample histogram is that
			// sample.
			lo := min
			if i > 0 && h.bounds[i-1] > lo {
				lo = h.bounds[i-1]
			}
			hi := max
			if i < len(h.bounds) && h.bounds[i] < hi {
				hi = h.bounds[i]
			}
			if lo > hi {
				lo = hi
			}
			frac := (rank - cum) / float64(c)
			return lo + frac*(hi-lo)
		}
		cum = next
	}
	return h.Max()
}

// Bounds returns a copy of the bucket upper bounds.
func (h *Histogram) Bounds() []float64 { return append([]float64(nil), h.bounds...) }

func (h *Histogram) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "n=%d mean=%.3f p50=%.3f p95=%.3f max=%.3f",
		h.N(), h.Mean(), h.Quantile(0.5), h.Quantile(0.95), h.Max())
	return b.String()
}
