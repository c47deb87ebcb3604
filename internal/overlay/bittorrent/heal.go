package bittorrent

import (
	"unap2p/internal/resilience"
	"unap2p/internal/underlay"
)

// This file implements the resilience.Healer Suspect/Evict/Replace
// contract for BitTorrent: evicting a peer strips it from every
// neighbor set, then the tracker refills each shrunken set back toward
// peerSet — same-ISP-first when biased selection is on, so the repaired
// swarm keeps the traffic locality of Bindal et al.

var _ resilience.Healer = (*Swarm)(nil)

// Evict removes the dead peer from every neighbor set and refills the
// affected peers' sets. Idempotent.
func (s *Swarm) Evict(id underlay.HostID) {
	if !s.MarkEvicted(id) {
		return
	}
	var victim *Peer
	var affected []*Peer
	for _, p := range s.peers {
		if p.Host.ID == id {
			victim = p
			continue
		}
		for i, q := range p.neighbors {
			if q.Host.ID == id {
				p.neighbors = append(p.neighbors[:i], p.neighbors[i+1:]...)
				affected = append(affected, p)
				break
			}
		}
	}
	if victim != nil {
		victim.neighbors = nil
	}
	// Choke-set refill: peers that lost the neighbor ask the tracker
	// for replacements (join order — the order `affected` was built in
	// — keeps the repair deterministic).
	for _, p := range affected {
		if p.Host.Up && !s.IsEvicted(p.Host.ID) {
			s.refill(p)
		}
	}
}

// refill tops p's neighbor set back up to peerSet from live, unevicted
// candidates: selector-biased (internal AS first, like AssignNeighbors)
// when a selector is wired, uniformly random otherwise.
func (s *Swarm) refill(p *Peer) {
	connect := func(q *Peer) {
		for _, have := range p.neighbors {
			if have.Host.ID == q.Host.ID {
				return
			}
		}
		p.neighbors = append(p.neighbors, q)
		q.neighbors = append(q.neighbors, p)
	}
	var candidates []*Peer
	for _, q := range s.peers {
		if q == p || !q.Host.Up || s.IsEvicted(q.Host.ID) {
			continue
		}
		candidates = append(candidates, q)
	}
	if s.sel == nil {
		s.shuffle(candidates)
		for _, q := range candidates {
			if len(p.neighbors) >= peerSet {
				return
			}
			connect(q)
		}
		return
	}
	var internal, external []*Peer
	for _, q := range candidates {
		if cost, ok := s.sel.Proximity(p.Host, q.Host); ok && cost == 0 {
			internal = append(internal, q)
		} else {
			external = append(external, q)
		}
	}
	s.shuffle(internal)
	s.shuffle(external)
	for _, q := range append(internal, external...) {
		if len(p.neighbors) >= peerSet {
			return
		}
		connect(q)
	}
}

// Refs returns every peer referenced by a neighbor set (deduped,
// sorted) — the reference set chaos invariants sweep for dead peers.
func (s *Swarm) Refs() []underlay.HostID {
	set := make(map[underlay.HostID]bool)
	for _, p := range s.peers {
		for _, q := range p.neighbors {
			set[q.Host.ID] = true
		}
	}
	return underlay.SortedIDs(set)
}

// NeighborCount reports p's current neighbor-set size (introspection
// for the chaos size-bound invariant).
func (p *Peer) NeighborCount() int { return len(p.neighbors) }
