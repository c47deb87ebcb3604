package metrics

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// ASPair is a directed (source AS, destination AS) pair.
type ASPair struct {
	Src, Dst int
}

// TrafficMatrix accumulates bytes exchanged between AS pairs. It is the
// core locality measurement: the intra-AS fraction of this matrix is the
// number every biased-neighbor-selection experiment in the paper reports.
//
// A TrafficMatrix is safe for concurrent use. Like CounterSet, the cell
// index is an atomic copy-on-write map — the per-message Add is a plain
// map lookup plus atomic adds, and only the first touch of a new AS pair
// takes the write lock and clones the index. This matters because the
// underlay charges every single Send into its Traffic matrix.
type TrafficMatrix struct {
	mu    sync.Mutex // serializes index replacement on first-touch creation
	cells atomic.Pointer[map[ASPair]*atomic.Uint64]
	total atomic.Uint64
	intra atomic.Uint64
}

// NewTrafficMatrix returns an empty matrix.
func NewTrafficMatrix() *TrafficMatrix {
	m := &TrafficMatrix{}
	cells := make(map[ASPair]*atomic.Uint64)
	m.cells.Store(&cells)
	return m
}

// cell returns the accumulator for p, creating it on first use.
func (m *TrafficMatrix) cell(p ASPair) *atomic.Uint64 {
	if c, ok := (*m.cells.Load())[p]; ok {
		return c
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	cur := *m.cells.Load()
	if c, ok := cur[p]; ok { // lost the creation race
		return c
	}
	next := make(map[ASPair]*atomic.Uint64, len(cur)+1)
	for k, v := range cur {
		next[k] = v
	}
	c := new(atomic.Uint64)
	next[p] = c
	m.cells.Store(&next)
	return c
}

// Add records n bytes flowing from AS src to AS dst.
func (m *TrafficMatrix) Add(src, dst int, n uint64) {
	m.cell(ASPair{src, dst}).Add(n)
	m.total.Add(n)
	if src == dst {
		m.intra.Add(n)
	}
}

// Total returns all bytes recorded.
func (m *TrafficMatrix) Total() uint64 { return m.total.Load() }

// Intra returns bytes whose source and destination AS coincide.
func (m *TrafficMatrix) Intra() uint64 { return m.intra.Load() }

// Inter returns bytes that crossed an AS boundary.
func (m *TrafficMatrix) Inter() uint64 { return m.total.Load() - m.intra.Load() }

// IntraFraction returns the intra-AS share of traffic in [0,1]
// (0 for an empty matrix).
func (m *TrafficMatrix) IntraFraction() float64 {
	total := m.total.Load()
	if total == 0 {
		return 0
	}
	return float64(m.intra.Load()) / float64(total)
}

// Pair returns the bytes recorded for a specific AS pair.
func (m *TrafficMatrix) Pair(src, dst int) uint64 {
	if c, ok := (*m.cells.Load())[ASPair{src, dst}]; ok {
		return c.Load()
	}
	return 0
}

// Pairs returns all pairs with non-zero traffic, sorted for deterministic
// iteration.
func (m *TrafficMatrix) Pairs() []ASPair {
	cells := *m.cells.Load()
	ps := make([]ASPair, 0, len(cells))
	for p := range cells {
		ps = append(ps, p)
	}
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].Src != ps[j].Src {
			return ps[i].Src < ps[j].Src
		}
		return ps[i].Dst < ps[j].Dst
	})
	return ps
}

func (m *TrafficMatrix) String() string {
	return fmt.Sprintf("traffic total=%dB intra=%.1f%%", m.Total(), 100*m.IntraFraction())
}
