package kademlia

import (
	"unap2p/internal/resilience"
	"unap2p/internal/underlay"
)

// This file implements the resilience.Healer Suspect/Evict/Replace
// contract for Kademlia: eviction removes the dead peer from every
// routing table, and each freed slot is refilled by promoting the best
// live entry of that bucket's replacement cache — proximity-ranked when
// the DHT runs PNS, so repairs stay underlay-aware.

var _ resilience.Healer = (*DHT)(nil)

// Evict removes the peer from every node's routing table and promotes
// replacement-cache entries into the freed slots. Idempotent.
func (d *DHT) Evict(id underlay.HostID) {
	if !d.MarkEvicted(id) {
		return
	}
	dead := d.nodes[id]
	if dead == nil {
		return
	}
	for _, n := range d.sorted {
		if n != dead {
			n.dropContact(dead.Contact)
		}
	}
}

// Refs returns every peer referenced by any routing table (deduped,
// sorted) — the reference set chaos invariants sweep for dead peers.
func (d *DHT) Refs() []underlay.HostID {
	set := make(map[underlay.HostID]bool)
	for _, n := range d.sorted {
		for _, c := range n.Contacts() {
			set[c.Host] = true
		}
	}
	return underlay.SortedIDs(set)
}

// stash parks a contact in the bucket's replacement cache (newest last,
// oldest displaced, no duplicates).
func (n *Node) stash(idx int, c Contact) {
	if n.spares == nil {
		n.spares = make([][]Contact, len(n.buckets))
	}
	s := n.spares[idx]
	for _, have := range s {
		if have.ID == c.ID {
			return
		}
	}
	if len(s) >= n.cfg.K {
		// Shift in place: s[1:] plus append walks down the backing array
		// and reallocates it every K stashes.
		copy(s, s[1:])
		s[len(s)-1] = c
		return
	}
	n.spares[idx] = append(s, c)
}

// dropContact removes c from the bucket holding it and promotes a
// replacement from the cache.
func (n *Node) dropContact(c Contact) {
	idx := bucketIndex(Distance(n.ID, c.ID))
	if idx < 0 {
		return
	}
	for i, have := range n.buckets[idx] {
		if have.ID == c.ID {
			n.buckets[idx] = append(n.buckets[idx][:i], n.buckets[idx][i+1:]...)
			n.promote(idx)
			return
		}
	}
}

// promote moves the best live spare of a bucket into the table: the
// proximity-closest one under PNS, else the longest-waiting one — the
// replacement-cache policy of Kademlia's original design, made
// underlay-aware through the selector.
func (n *Node) promote(idx int) {
	if n.spares == nil {
		return
	}
	d := n.dht
	best := -1
	bestLat := 0.0
	for i, c := range n.spares[idx] {
		h := d.U.Host(c.Host)
		if !h.Up || d.IsEvicted(c.Host) {
			continue
		}
		if d.sel == nil {
			best = i // FIFO: first live spare wins
			break
		}
		lat := d.proximity(n.host, h)
		if best < 0 || lat < bestLat {
			best, bestLat = i, lat
		}
	}
	if best < 0 {
		return
	}
	c := n.spares[idx][best]
	n.spares[idx] = append(n.spares[idx][:best], n.spares[idx][best+1:]...)
	n.buckets[idx] = append(n.buckets[idx], c)
}
