package metrics

import (
	"math"
	"sort"
)

// This file holds the export surface of the metrics package: frozen,
// JSON-serializable snapshots of the accumulators (CounterSet,
// Histogram, TrafficMatrix). Snapshots decouple observation from
// reporting — the telemetry layer persists them into run files and the
// Prometheus exporter renders them — and they are value types, so two
// snapshots of identical state compare equal with reflect.DeepEqual.

// Snapshot returns a frozen name → value view of every counter in the
// set, in no particular storage order (maps compare by content).
func (s *CounterSet) Snapshot() map[string]uint64 {
	m := *s.m.Load()
	out := make(map[string]uint64, len(m))
	for name, c := range m {
		out[name] = c.Value()
	}
	return out
}

// HistogramSnapshot is a frozen, serializable view of a Histogram.
// Bounds/Counts mirror the live histogram's buckets (Counts has one
// extra overflow entry); N, Sum, Min, Max reproduce the summary stats.
type HistogramSnapshot struct {
	Bounds []float64 `json:"bounds"`
	Counts []uint64  `json:"counts"`
	N      uint64    `json:"n"`
	Sum    float64   `json:"sum"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
}

// Snapshot freezes the histogram's current state. Under concurrent
// writers the count vector is copied atomically and N is derived from
// that copy, so a snapshot is always internally consistent (Sum may
// trail the counts by in-flight observations).
func (h *Histogram) Snapshot() HistogramSnapshot {
	counts, n := h.loadCounts()
	s := HistogramSnapshot{
		Bounds: h.Bounds(),
		Counts: counts,
		N:      n,
		Sum:    h.Sum(),
	}
	if n > 0 {
		s.Min, s.Max = h.Min(), h.Max()
	}
	return s
}

// HistogramFromSnapshot reconstructs a live histogram from a snapshot;
// the round trip h → Snapshot → HistogramFromSnapshot preserves every
// count, bound, and summary statistic (and therefore every quantile).
func HistogramFromSnapshot(s HistogramSnapshot) *Histogram {
	h := NewHistogram(s.Bounds)
	copy(h.counts, s.Counts)
	h.sum.Store(math.Float64bits(s.Sum))
	if s.N > 0 {
		h.min.Store(math.Float64bits(s.Min))
		h.max.Store(math.Float64bits(s.Max))
	}
	return h
}

// Quantile approximates the q-quantile directly on a snapshot, by
// reconstructing the histogram's interpolation. It matches the live
// histogram's Quantile for the same state.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	return HistogramFromSnapshot(s).Quantile(q)
}

// Mean reports the snapshot's mean observation (0 when empty).
func (s HistogramSnapshot) Mean() float64 {
	if s.N == 0 {
		return 0
	}
	return s.Sum / float64(s.N)
}

// PairBytes is one (src AS, dst AS, bytes) cell of a traffic-matrix
// snapshot.
type PairBytes struct {
	Src   int    `json:"src"`
	Dst   int    `json:"dst"`
	Bytes uint64 `json:"bytes"`
}

// MatrixSnapshot is a frozen, serializable view of a TrafficMatrix with
// cells in deterministic (src, dst) order.
type MatrixSnapshot struct {
	Total uint64      `json:"total"`
	Intra uint64      `json:"intra"`
	Pairs []PairBytes `json:"pairs,omitempty"`
}

// IntraFraction returns the intra-AS share of the snapshot's traffic.
func (s MatrixSnapshot) IntraFraction() float64 {
	if s.Total == 0 {
		return 0
	}
	return float64(s.Intra) / float64(s.Total)
}

// Snapshot freezes the matrix, cells sorted by (src, dst).
func (m *TrafficMatrix) Snapshot() MatrixSnapshot {
	s := MatrixSnapshot{Total: m.Total(), Intra: m.Intra()}
	for _, p := range m.Pairs() {
		s.Pairs = append(s.Pairs, PairBytes{Src: p.Src, Dst: p.Dst, Bytes: m.Pair(p.Src, p.Dst)})
	}
	return s
}

// SortedKeys returns the keys of a snapshot map in sorted order — the
// iteration helper every deterministic exporter needs.
func SortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
