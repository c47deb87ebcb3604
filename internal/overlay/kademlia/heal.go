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
	for _, have := range n.spares.bucket(idx) {
		if have.ID == c.ID {
			return
		}
	}
	s := n.slot(&n.spares, idx)
	if len(*s) >= n.cfg.K {
		// Shift in place: s[1:] plus append walks down the backing array
		// and reallocates it every K stashes.
		copy(*s, (*s)[1:])
		(*s)[len(*s)-1] = c
		return
	}
	*s = append(*s, c)
}

// dropContact removes c from the bucket holding it and promotes a
// replacement from the cache.
func (n *Node) dropContact(c Contact) {
	idx := bucketIndex(Distance(n.ID, c.ID))
	if idx < 0 {
		return
	}
	for i, have := range n.buckets.bucket(idx) {
		if have.ID == c.ID {
			b := n.slot(&n.buckets, idx)
			*b = append((*b)[:i], (*b)[i+1:]...)
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
	d := n.dht
	best := -1
	bestLat := 0.0
	for i, c := range n.spares.bucket(idx) {
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
	s := n.slot(&n.spares, idx)
	c := (*s)[best]
	*s = append((*s)[:best], (*s)[best+1:]...)
	b := n.slot(&n.buckets, idx)
	*b = append(*b, c)
}
