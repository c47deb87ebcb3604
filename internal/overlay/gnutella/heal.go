package gnutella

import (
	"slices"

	"unap2p/internal/resilience"
	"unap2p/internal/underlay"
)

// This file implements the resilience.Healer Suspect/Evict/Replace
// contract for Gnutella: evicting an ultrapeer detaches it, re-elects a
// replacement ultrapeer when its AS lost the last one (through the
// selector's ElectSuperPeer verb, so the promoted peer is the
// best-provisioned candidate), re-attaches its orphaned leaves, and
// tops the surviving backbone's degree back up.

var _ resilience.Healer = (*Overlay)(nil)

// Evict disconnects the dead peer and repairs the two-tier topology.
// Idempotent.
func (o *Overlay) Evict(id underlay.HostID) {
	if !o.MarkEvicted(id) {
		return
	}
	n := o.nodes[id]
	if n == nil {
		return
	}
	wasUltra := n.Ultra
	// The snapshots alias n's sets. That is safe: Leave edits only the
	// peers' sets and then sets n's to nil, so anything later added to n
	// grows a fresh array and nothing else writes these two.
	orphans, backbone := n.leaves, n.neighbors
	o.Leave(n)
	if !wasUltra {
		return
	}
	// Re-election: an AS whose last ultrapeer died promotes a leaf, so
	// biased joins keep finding a same-AS attachment point.
	if !o.hasLiveUltra(n.Host.AS.ID) {
		if cand := o.electUltra(n.Host.AS.ID); cand != nil {
			o.Leave(cand) // drop its leaf attachments before the role flip
			cand.Ultra = true
			o.Join(cand)
		}
	}
	// Orphaned leaves re-run the join protocol (biased when a selector
	// is wired) to find new parents.
	for _, lid := range orphans {
		leaf := o.nodes[lid]
		if leaf != nil && leaf.Host.Up && !o.IsEvicted(lid) && !leaf.Ultra {
			o.Join(leaf)
		}
	}
	// Backbone repair: surviving neighbors that dropped below target
	// degree re-join to refill their connection budget.
	for _, nb := range backbone {
		m := o.nodes[nb]
		if m != nil && m.Host.Up && !o.IsEvicted(nb) && m.Ultra && m.Degree() < o.Cfg.UltraDegree {
			o.Join(m)
		}
	}
}

// hasLiveUltra reports whether an AS still has an online, non-evicted
// ultrapeer.
func (o *Overlay) hasLiveUltra(asID int) bool {
	for _, id := range o.order {
		n := o.nodes[id]
		if n.Ultra && n.Host.Up && !o.IsEvicted(id) && n.Host.AS.ID == asID {
			return true
		}
	}
	return false
}

// electUltra picks the leaf to promote in an AS: the selector's
// ElectSuperPeer verb when available (capacity-ranked), else the
// lowest-id live leaf.
func (o *Overlay) electUltra(asID int) *Node {
	var candidates []*underlay.Host
	for _, id := range o.order {
		n := o.nodes[id]
		if !n.Ultra && n.Host.Up && !o.IsEvicted(id) && n.Host.AS.ID == asID {
			candidates = append(candidates, n.Host)
		}
	}
	if len(candidates) == 0 {
		return nil
	}
	best := candidates[0]
	for _, h := range candidates[1:] {
		if h.ID < best.ID {
			best = h
		}
	}
	if o.Sel != nil {
		if h, ok := o.Sel.ElectSuperPeer(candidates); ok {
			best = h
		}
	}
	return o.nodes[best.ID]
}

// Refs returns every peer referenced by a connection set — ultrapeer
// neighbors, leaf attachments, leaf parents — deduped and sorted: the
// reference set chaos invariants sweep for dead peers.
func (o *Overlay) Refs() []underlay.HostID {
	var refs []underlay.HostID
	for _, id := range o.order {
		n := o.nodes[id]
		refs = append(append(append(refs, n.neighbors...), n.leaves...), n.parents...)
	}
	slices.Sort(refs)
	return slices.Compact(refs)
}
