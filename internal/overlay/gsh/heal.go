package gsh

import (
	"sort"

	"unap2p/internal/resilience"
	"unap2p/internal/underlay"
)

// This file implements the resilience.Healer Suspect/Evict/Replace
// contract for GSH: eviction removes the dead peer from the zone
// membership at every level (shifting rendezvous responsibility to the
// survivors), purges it from holder lists, and lets surviving holders
// re-publish the registry entries that died with it — Leopard's scoped
// registration replayed over the repaired membership, with the
// re-register messages charged to the transport like any other publish.

var _ resilience.Healer = (*Overlay)(nil)

// Evict removes the dead peer from the hierarchy and re-homes the
// registry entries it was responsible for. Idempotent.
func (o *Overlay) Evict(id underlay.HostID) {
	if !o.MarkEvicted(id) {
		return
	}
	dead, ok := o.nodes[id]
	if !ok {
		return
	}
	// Membership repair first: rendezvous hashing re-routes every key the
	// dead node owned to a surviving member the moment it leaves the list.
	for l := range o.members {
		for z, ids := range o.members[l] {
			for i, m := range ids {
				if m == id {
					o.members[l][z] = append(ids[:i], ids[i+1:]...)
					break
				}
			}
			if len(o.members[l][z]) == 0 {
				delete(o.members[l], z)
			}
		}
	}
	delete(o.nodes, id)
	// The dead host can no longer serve content: purge it from every
	// surviving holder list (pure filtering, order-independent).
	for _, n := range o.nodes {
		for l := range n.registry {
			for k, hs := range n.registry[l] {
				for i, h := range hs {
					if h == id {
						n.registry[l][k] = append(hs[:i], hs[i+1:]...)
						break
					}
				}
				if len(n.registry[l][k]) == 0 {
					delete(n.registry[l], k)
				}
			}
		}
	}
	// Registry entries stored ON the dead node died with it: surviving
	// live holders re-publish them to the new responsible member. Levels
	// ascending and keys sorted keep the message order deterministic.
	for l := 0; l < len(dead.registry); l++ {
		keys := make([]Key, 0, len(dead.registry[l]))
		for k := range dead.registry[l] {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		for _, k := range keys {
			for _, holder := range dead.registry[l][k] {
				h := o.T.Underlay().Host(holder)
				if !h.Up || o.IsEvicted(holder) {
					continue
				}
				o.reRegister(l, h, k)
			}
		}
	}
}

// reRegister replays one level of a Publish for holder/k against the
// repaired membership (a lost re-register leaves the entry missing at
// that level, like any other faulted publish).
func (o *Overlay) reRegister(level int, holder *underlay.Host, k Key) {
	z := zoneOf(o.pos(holder), level)
	resp, ok := o.responsible(level, z, k)
	if !ok {
		return
	}
	rn := o.nodes[resp]
	if resp != holder.ID {
		if res := o.T.Send(holder, rn.host, msgBytes, "register"); !res.OK {
			return
		}
	}
	rn.load++
	for _, have := range rn.registry[level][k] {
		if have == holder.ID {
			return
		}
	}
	rn.registry[level][k] = append(rn.registry[level][k], holder.ID)
}

// Refs returns every peer referenced by zone membership or a holder
// list (deduped, sorted) — the reference set chaos invariants sweep
// for dead peers.
func (o *Overlay) Refs() []underlay.HostID {
	set := make(map[underlay.HostID]bool)
	for l := range o.members {
		for _, ids := range o.members[l] {
			for _, id := range ids {
				set[id] = true
			}
		}
	}
	for _, n := range o.nodes {
		for l := range n.registry {
			for _, hs := range n.registry[l] {
				for _, id := range hs {
					set[id] = true
				}
			}
		}
	}
	return underlay.SortedIDs(set)
}
