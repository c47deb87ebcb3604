package metrics

import (
	"fmt"
	"sort"
)

// ASPair is a directed (source AS, destination AS) pair.
type ASPair struct {
	Src, Dst int
}

// TrafficMatrix accumulates bytes exchanged between AS pairs. It is the
// core locality measurement: the intra-AS fraction of this matrix is the
// number every biased-neighbor-selection experiment in the paper reports.
//
// A TrafficMatrix belongs to the simulation goroutine: the transport that
// owns it and every reader (overlays, experiments, Recorder.Snapshot) run
// there, and the live /metrics view renders a snapshot copy.
type TrafficMatrix struct {
	cells        map[ASPair]uint64
	total, intra uint64
}

// NewTrafficMatrix returns an empty matrix.
func NewTrafficMatrix() *TrafficMatrix {
	return &TrafficMatrix{cells: make(map[ASPair]uint64)}
}

// Add records n bytes flowing from AS src to AS dst.
func (m *TrafficMatrix) Add(src, dst int, n uint64) {
	m.cells[ASPair{src, dst}] += n
	m.total += n
	if src == dst {
		m.intra += n
	}
}

// Total returns all bytes recorded.
func (m *TrafficMatrix) Total() uint64 { return m.total }

// Intra returns bytes whose source and destination AS coincide.
func (m *TrafficMatrix) Intra() uint64 { return m.intra }

// Inter returns bytes that crossed an AS boundary.
func (m *TrafficMatrix) Inter() uint64 { return m.total - m.intra }

// IntraFraction returns the intra-AS share of traffic in [0,1]
// (0 for an empty matrix).
func (m *TrafficMatrix) IntraFraction() float64 {
	if m.total == 0 {
		return 0
	}
	return float64(m.intra) / float64(m.total)
}

// Pair returns the bytes recorded for a specific AS pair.
func (m *TrafficMatrix) Pair(src, dst int) uint64 { return m.cells[ASPair{src, dst}] }

// Pairs returns all pairs with recorded traffic, sorted for deterministic
// iteration.
func (m *TrafficMatrix) Pairs() []ASPair {
	ps := make([]ASPair, 0, len(m.cells))
	for p := range m.cells {
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
