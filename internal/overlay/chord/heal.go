package chord

import (
	"slices"

	"unap2p/internal/resilience"
	"unap2p/internal/underlay"
)

// This file implements the resilience.Healer Suspect/Evict/Replace
// contract for Chord: eviction removes the dead node from the ring,
// rebuilds every successor list over the survivors (the repair Chord's
// stabilize protocol performs incrementally), and re-fills exactly the
// finger slots that pointed at the dead node — proximity-selected when
// the ring runs PNS, so repairs stay underlay-aware.

var _ resilience.Healer = (*Ring)(nil)

// Evict removes the dead node and repairs successors and fingers.
// Idempotent.
func (c *Ring) Evict(id underlay.HostID) {
	if !c.MarkEvicted(id) {
		return
	}
	dead := c.byHost[id]
	if dead == nil {
		return
	}
	delete(c.byHost, id)
	idx := slices.Index(c.nodes, dead)
	c.nodes = slices.Delete(c.nodes, idx, idx+1)
	for i, node := range c.nodes {
		// Successor-list repair: rebuilt over the surviving ring.
		c.fillSuccessors(i)
		// Finger repair: only slots that referenced the dead node are
		// recomputed; every other finger keeps its (possibly
		// proximity-picked) entry.
		for fi := range node.fingers {
			if node.fingers[fi] == dead {
				c.fillFinger(node, fi)
			}
		}
	}
}

// Refs returns every peer referenced by a successor list or finger
// table (deduped, sorted) — the reference set chaos invariants sweep
// for dead peers.
func (c *Ring) Refs() []underlay.HostID {
	set := make(map[underlay.HostID]bool)
	for _, n := range c.nodes {
		for _, s := range n.successors {
			set[s.Host.ID] = true
		}
		for _, f := range n.fingers {
			if f != nil {
				set[f.Host.ID] = true
			}
		}
	}
	return underlay.SortedIDs(set)
}
