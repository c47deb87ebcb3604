package geotree

import (
	"unap2p/internal/resilience"
	"unap2p/internal/underlay"
)

// This file implements the resilience.Healer Suspect/Evict/Replace
// contract for the Globase.KOM-style tree: eviction deregisters the
// dead peer and re-attaches a live supervisor to every zone — leaf or
// internal — the dead peer supervised, elected through the selector's
// ElectSuperPeer verb when one is wired. Internal zones matter: splits
// leave ancestor zones supervised by hosts that migrated into children,
// so a crash can orphan several levels at once.

var _ resilience.Healer = (*Tree)(nil)

// Evict deregisters the dead peer and repairs every zone it
// supervised. Idempotent.
func (t *Tree) Evict(id underlay.HostID) {
	if !t.MarkEvicted(id) {
		return
	}
	t.Remove(t.U.Host(id))
	var walk func(z *zone)
	walk = func(z *zone) {
		if z.hasSuper && z.supervisor == id {
			t.reassign(z)
		}
		for _, c := range z.children {
			walk(c)
		}
	}
	walk(t.root)
}

// reassign elects a new supervisor for z from the live members of its
// subtree (pre-order, so leaf members serve their own zone first); an
// empty subtree leaves the zone unsupervised until the next Insert.
func (t *Tree) reassign(z *zone) {
	var hosts []*underlay.Host
	var collect func(z *zone)
	collect = func(z *zone) {
		for _, id := range z.members {
			h := t.U.Host(id)
			if h.Up && !t.IsEvicted(id) {
				hosts = append(hosts, h)
			}
		}
		for _, c := range z.children {
			collect(c)
		}
	}
	collect(z)
	if len(hosts) == 0 {
		z.hasSuper = false
		return
	}
	super := hosts[0]
	if t.sel != nil {
		if h, ok := t.sel.ElectSuperPeer(hosts); ok {
			super = h
		}
	}
	z.supervisor = super.ID
	z.hasSuper = true
}

// Refs returns every peer referenced by the tree — zone members and
// supervisors at every level — deduped and sorted: the reference set
// chaos invariants sweep for dead peers.
func (t *Tree) Refs() []underlay.HostID {
	set := make(map[underlay.HostID]bool)
	var walk func(z *zone)
	walk = func(z *zone) {
		if z.hasSuper {
			set[z.supervisor] = true
		}
		for _, id := range z.members {
			set[id] = true
		}
		for _, c := range z.children {
			walk(c)
		}
	}
	walk(t.root)
	return underlay.SortedIDs(set)
}
