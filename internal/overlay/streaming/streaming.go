// Package streaming implements a mesh-pull P2P live-streaming overlay
// with the bandwidth-aware scheduling of da Silva, Leonardi, Mellia and
// Meo ("A bandwidth-aware scheduling strategy for P2P-TV systems", IEEE
// P2P 2008 — [6] in the paper, Table 1's peer-resources row): a source
// emits a chunk per tick; peers pull missing chunks from mesh neighbors
// before their playout deadline; choosing *high-upload* parents (peer-
// resources awareness) raises playback continuity over random meshes.
package streaming

import (
	"fmt"
	"math/rand"

	"unap2p/internal/core"
	"unap2p/internal/metrics"
	"unap2p/internal/resilience"
	"unap2p/internal/transport"
	"unap2p/internal/underlay"
)

// Stream parameters.
const (
	// bitrateKbps is the stream rate; a peer's chunk-per-tick upload
	// budget is UpKbps/bitrateKbps (one tick carries one chunk).
	bitrateKbps float64 = 400
	// chunkBytes is the size of one chunk on the wire.
	chunkBytes uint64 = 50 << 10
	// window is how many chunks ahead of the playhead a peer will pull.
	window = 10
	// startupDelay is the playout offset in ticks: at tick t every peer
	// must play chunk t−startupDelay.
	startupDelay = 12
	// meshParents is the number of mesh parents per peer.
	meshParents = 4
	// sourceFanout guarantees the source directly parents this many
	// viewers; without it the whole stream can bottleneck through a
	// single lucky child.
	sourceFanout = 6
)

// Peer is one viewer.
type Peer struct {
	Host *underlay.Host
	// have marks received chunks.
	have map[int]bool
	// parents are the neighbors this peer pulls from.
	parents []*Peer
	// budget accumulates fractional upload capacity across ticks.
	budget float64
	// upPerTick is the chunks/tick this peer can upload.
	upPerTick float64
	// Played and Missed count playout outcomes.
	Played, Missed int
	isSource       bool
}

// Has reports chunk possession.
func (p *Peer) Has(chunk int) bool { return p.isSource || p.have[chunk] }

// Mesh is a streaming session.
type Mesh struct {
	// T carries chunk transfers.
	T *transport.Transport
	// ChunkTraffic accounts chunk bytes by AS pair, recorded by the
	// transport under the "chunk" message type.
	ChunkTraffic *metrics.TrafficMatrix

	source *Peer
	peers  []*Peer
	tick   int
	r      *rand.Rand
	sel    core.Selector
	// Ledger records the failure detector's evictions (see heal.go).
	resilience.Ledger
}

// NewMesh creates a session rooted at the source host, sending through
// tr. The selector supplies peer upload capacities via its Bandwidth
// verb (required — a core.ResourceSelector over the resource table);
// when its Weight verb answers, parent assignment becomes bandwidth-
// aware (capacity-weighted instead of uniform — ResourceSelector with
// WeightParents set).
func NewMesh(tr *transport.Transport, sel core.Selector, source *underlay.Host, r *rand.Rand) *Mesh {
	if sel == nil {
		panic("streaming: selector required for peer capacities")
	}
	m := &Mesh{
		T:            tr,
		ChunkTraffic: tr.MatrixFor("chunk"),
		r:            r,
		sel:          sel,
	}
	m.source = &Peer{Host: source, have: map[int]bool{}, isSource: true, upPerTick: 1e9}
	return m
}

// AddViewer joins a host as a viewer.
func (m *Mesh) AddViewer(h *underlay.Host) *Peer {
	if h.ID == m.source.Host.ID {
		panic("streaming: source cannot also view")
	}
	for _, p := range m.peers {
		if p.Host.ID == h.ID {
			panic(fmt.Sprintf("streaming: host %d already viewing", h.ID))
		}
	}
	up, _ := m.sel.Bandwidth(h)
	p := &Peer{
		Host:      h,
		have:      map[int]bool{},
		upPerTick: up / bitrateKbps,
	}
	m.peers = append(m.peers, p)
	return p
}

// Peers returns the viewers in join order.
func (m *Mesh) Peers() []*Peer { return m.peers }

// AssignParents wires the mesh: every viewer gets meshParents parents
// from {source} ∪ viewers. When the selector's Weight verb declines,
// picks are uniform; when it answers, picks are capacity-weighted
// (high-upload peers parent many children — the bandwidth-aware strategy).
func (m *Mesh) AssignParents() {
	candidates := append([]*Peer{m.source}, m.peers...)
	weights := make([]float64, len(candidates))
	var total float64
	for i, c := range candidates {
		w := 1.0
		if kbps, ok := m.sel.Weight(c.Host); ok {
			w = kbps / bitrateKbps
			if c.isSource {
				w = 2 // the source is one peer, not infinite capacity
			}
		}
		weights[i] = w
		total += w
	}
	pickWeighted := func() *Peer {
		x := m.r.Float64() * total
		for i, w := range weights {
			x -= w
			if x <= 0 {
				return candidates[i]
			}
		}
		return candidates[len(candidates)-1]
	}
	for _, p := range m.peers {
		seen := map[underlay.HostID]bool{p.Host.ID: true}
		for tries := 0; len(p.parents) < meshParents && tries < 200; tries++ {
			c := pickWeighted()
			if seen[c.Host.ID] {
				continue
			}
			seen[c.Host.ID] = true
			p.parents = append(p.parents, c)
		}
	}
	// Guaranteed source fan-out: the first sourceFanout viewers (spread
	// by a shuffle) get the source as an extra parent unless they have
	// it already.
	fan := sourceFanout
	if fan > len(m.peers) {
		fan = len(m.peers)
	}
	order := m.r.Perm(len(m.peers))
	for _, idx := range order {
		if fan == 0 {
			break
		}
		p := m.peers[idx]
		hasSource := false
		for _, par := range p.parents {
			if par.isSource {
				hasSource = true
				break
			}
		}
		if !hasSource {
			p.parents = append(p.parents, m.source)
		}
		fan--
	}
}

// Tick advances the stream one chunk: the source originates chunk
// m.tick, every peer pulls its most urgent missing chunks from parents
// that have them (parents serve within their upload budgets), and every
// peer whose playout deadline passed scores the chunk played or missed.
func (m *Mesh) Tick() {
	chunk := m.tick
	m.source.have[chunk] = true
	// Refill budgets.
	m.source.budget = 1e9
	for _, p := range m.peers {
		p.budget += p.upPerTick
		if p.budget > 4*p.upPerTick+1 {
			p.budget = 4*p.upPerTick + 1 // cap hoarding
		}
	}
	// Pull phase: peers in deterministic order request their most urgent
	// window chunks. A request succeeds if some parent has the chunk and
	// upload budget left.
	playhead := m.tick - startupDelay
	for _, p := range m.peers {
		if !p.Host.Up {
			continue
		}
		low := playhead
		if low < 0 {
			low = 0
		}
		for c := low; c <= chunk && c < low+window; c++ {
			if p.have[c] {
				continue
			}
			for _, parent := range p.parents {
				if !parent.Host.Up || !parent.Has(c) || parent.budget < 1 {
					continue
				}
				parent.budget--
				// The parent's budget is spent even when the chunk is
				// lost; the peer retries the chunk next tick.
				if sr := m.T.Send(parent.Host, p.Host, chunkBytes, "chunk"); sr.OK {
					p.have[c] = true
				}
				break
			}
		}
	}
	// Playout phase.
	if playhead >= 0 {
		for _, p := range m.peers {
			if !p.Host.Up {
				continue
			}
			if p.have[playhead] {
				p.Played++
				delete(p.have, playhead) // played chunks leave the buffer
			} else {
				p.Missed++
			}
		}
	}
	m.tick++
}

// Run advances the stream n ticks.
func (m *Mesh) Run(n int) {
	for i := 0; i < n; i++ {
		m.Tick()
	}
}

// Continuity returns the fraction of playout deadlines met across all
// viewers — the P2P-TV quality metric.
func (m *Mesh) Continuity() float64 {
	var played, total int
	for _, p := range m.peers {
		played += p.Played
		total += p.Played + p.Missed
	}
	if total == 0 {
		return 0
	}
	return float64(played) / float64(total)
}

// WorstContinuity returns the worst single viewer's continuity — aware
// scheduling should lift the tail, not just the mean.
func (m *Mesh) WorstContinuity() float64 {
	worst := 1.0
	for _, p := range m.peers {
		t := p.Played + p.Missed
		if t == 0 {
			continue
		}
		if c := float64(p.Played) / float64(t); c < worst {
			worst = c
		}
	}
	return worst
}

// ParentCapacityMean reports the mean upload capacity (chunks/tick) over
// all parent slots — the knob awareness turns.
func (m *Mesh) ParentCapacityMean() float64 {
	var sum float64
	n := 0
	for _, p := range m.peers {
		for _, parent := range p.parents {
			if parent.isSource {
				continue
			}
			sum += parent.upPerTick
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// HealthStats feeds telemetry.Recorder.ObserveHealth: playout
// quality gauges the probe plane samples per tick batch (pure reads over
// the peer slice, deterministic).
//
//   - peers: viewer population
//   - ticks: stream ticks driven so far
//   - continuity / worst_continuity: mean and minimum played fraction
//   - buffered_mean: mean chunks buffered per viewer
func (m *Mesh) HealthStats() map[string]float64 {
	out := map[string]float64{
		"peers":            float64(len(m.peers)),
		"ticks":            float64(m.tick),
		"continuity":       m.Continuity(),
		"worst_continuity": m.WorstContinuity(),
	}
	if len(m.peers) > 0 {
		var buffered float64
		for _, p := range m.peers {
			buffered += float64(len(p.have))
		}
		out["buffered_mean"] = buffered / float64(len(m.peers))
	}
	return out
}
