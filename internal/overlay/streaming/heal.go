package streaming

import (
	"unap2p/internal/resilience"
	"unap2p/internal/underlay"
)

// This file implements the resilience.Healer Suspect/Evict/Replace
// contract for the streaming mesh: evicting a parent strips it from
// every child's parent set and re-attaches each orphaned child to a
// replacement drawn with the same capacity-weighted policy
// AssignParents uses — so repairs preserve the bandwidth-aware shape
// of the mesh. Eviction of the source is recorded but not repaired:
// a live stream has no substitute origin.

var _ resilience.Healer = (*Mesh)(nil)

// Evict removes the dead peer as a parent everywhere and re-attaches
// the orphaned children. Idempotent.
func (m *Mesh) Evict(id underlay.HostID) {
	if !m.MarkEvicted(id) {
		return
	}
	var orphans []*Peer
	for _, p := range m.peers {
		for i, parent := range p.parents {
			if parent.Host.ID == id {
				p.parents = append(p.parents[:i], p.parents[i+1:]...)
				orphans = append(orphans, p)
				break
			}
		}
	}
	if m.source.Host.ID == id {
		return // no substitute origin: children keep remaining parents only
	}
	// Parent re-attach in join order (the order orphans was built in)
	// keeps the RNG draw sequence deterministic.
	for _, p := range orphans {
		if p.Host.Up && !m.IsEvicted(p.Host.ID) {
			m.reattach(p)
		}
	}
}

// reattach tops p's parent set back up to meshParents from live,
// unevicted candidates, capacity-weighted exactly like AssignParents.
func (m *Mesh) reattach(p *Peer) {
	seen := map[underlay.HostID]bool{p.Host.ID: true}
	for _, parent := range p.parents {
		seen[parent.Host.ID] = true
	}
	var candidates []*Peer
	var weights []float64
	var total float64
	for _, c := range append([]*Peer{m.source}, m.peers...) {
		if seen[c.Host.ID] || !c.Host.Up || m.IsEvicted(c.Host.ID) {
			continue
		}
		w := 1.0
		if kbps, ok := m.sel.Weight(c.Host); ok {
			w = kbps / bitrateKbps
			if c.isSource {
				w = 2
			}
		}
		candidates = append(candidates, c)
		weights = append(weights, w)
		total += w
	}
	for tries := 0; len(p.parents) < meshParents && tries < 200 && len(candidates) > 0; tries++ {
		x := m.r.Float64() * total
		pick := len(candidates) - 1
		for i, w := range weights {
			x -= w
			if x <= 0 {
				pick = i
				break
			}
		}
		c := candidates[pick]
		if seen[c.Host.ID] {
			continue
		}
		seen[c.Host.ID] = true
		p.parents = append(p.parents, c)
	}
}

// Refs returns every peer referenced as a parent (deduped, sorted) —
// the reference set chaos invariants sweep for dead peers.
func (m *Mesh) Refs() []underlay.HostID {
	set := make(map[underlay.HostID]bool)
	for _, p := range m.peers {
		for _, parent := range p.parents {
			set[parent.Host.ID] = true
		}
	}
	return underlay.SortedIDs(set)
}

// ParentCount reports p's current parent-set size (introspection for
// the chaos size-bound invariant).
func (p *Peer) ParentCount() int { return len(p.parents) }
