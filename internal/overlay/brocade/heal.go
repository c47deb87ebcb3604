package brocade

import (
	"unap2p/internal/resilience"
	"unap2p/internal/underlay"
)

// This file implements the resilience.Healer Suspect/Evict/Replace
// contract for Brocade: evicting a supernode triggers a fresh election
// in its AS over the surviving members — through the same
// ElectSuperPeer policy Build used — so the landmark overlay keeps one
// well-provisioned representative per domain. An AS left with no live
// members loses its landmark and Route degrades to direct legs.

var _ resilience.Healer = (*Overlay)(nil)

// Evict removes the dead peer from membership and, if it was an AS
// landmark, re-elects. Idempotent.
func (o *Overlay) Evict(id underlay.HostID) {
	if !o.MarkEvicted(id) || !o.members[id] {
		return
	}
	delete(o.members, id)
	asID := o.U.Host(id).AS.ID
	group := o.groups[asID]
	for i, h := range group {
		if h.ID == id {
			o.groups[asID] = append(group[:i], group[i+1:]...)
			break
		}
	}
	if o.supernodes[asID] != id {
		return
	}
	o.reelect(asID)
}

// reelect picks a new supernode for asID from its live, unevicted
// members (groups are id-sorted, so the nil-selector default remains
// "lowest id"); an empty field deletes the landmark.
func (o *Overlay) reelect(asID int) {
	var alive []*underlay.Host
	for _, h := range o.groups[asID] {
		if h.Up && !o.IsEvicted(h.ID) {
			alive = append(alive, h)
		}
	}
	if len(alive) == 0 {
		delete(o.supernodes, asID)
		return
	}
	super := alive[0]
	if o.sel != nil {
		if h, ok := o.sel.ElectSuperPeer(alive); ok {
			super = h
		}
	}
	o.supernodes[asID] = super.ID
}

// Refs returns every peer the landmark overlay routes through — the
// elected supernodes — deduped and sorted: the reference set chaos
// invariants sweep for dead peers.
func (o *Overlay) Refs() []underlay.HostID {
	set := make(map[underlay.HostID]bool)
	for _, id := range o.supernodes {
		set[id] = true
	}
	return underlay.SortedIDs(set)
}
