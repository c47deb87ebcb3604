// Package livenode is the per-process node runtime behind cmd/unapnode:
// it boots a nettransport.Net, joins a cluster through the hello/welcome
// handshake, runs the resilience failure detector against wall time, and
// hosts a compact live engine for one overlay (Kademlia, Chord or
// Gnutella).
//
// The live engines are deliberately not the simulation overlays. The sim
// packages hold a global view — a lookup walks other nodes' in-memory
// routing tables directly, which is exactly what a real deployment cannot
// do. Here every node only sees its own state, and every hop is a real
// datagram exchange through the nettransport RPC vocabulary
// (kad:find_node, chord:find_succ, gnu:query). What makes the engines
// compact is the keyspace convention below: a node's overlay key is a
// fixed hash of its cluster id, so any process can compute any member's
// key — and therefore the ground truth of any lookup — from the address
// book alone, with no key-exchange protocol. That is what lets an
// integration test assert a success rate instead of just "no crash".
package livenode

import (
	"unap2p/internal/lookup"
	"unap2p/internal/megascale"
	"unap2p/internal/underlay"
)

// NodeKey maps a cluster host id onto the 64-bit overlay keyspace with
// the splitmix64 finalizer: deterministic, well spread, and computable by
// every process independently.
func NodeKey(id underlay.HostID) uint64 {
	return megascale.Mix64(uint64(uint32(id)) + 0x9e3779b97f4a7c15)
}

// ClosestXor returns up to k of the (distinct) member ids sorted by XOR
// distance of their NodeKey to target — the Kademlia notion of "closest":
// every member is offered to a lookup.Shortlist, and the result is the
// only allocation while k fits the stack scratch.
func ClosestXor(members []underlay.HostID, target uint64, k int) []underlay.HostID {
	if k > len(members) {
		k = len(members)
	}
	if k <= 0 {
		return nil
	}
	var buf [2 * kadK]lookup.Entry[underlay.HostID]
	best := lookup.New(buf[:], k)
	for _, id := range members {
		best.Offer(id, NodeKey(id)^target, false)
	}
	return best.IDs()
}

// RingSuccessor returns the member owning target on the Chord ring: the
// member whose NodeKey is the smallest key ≥ target, wrapping to the
// smallest key overall. False when members is empty.
func RingSuccessor(members []underlay.HostID, target uint64) (underlay.HostID, bool) {
	var best, wrap underlay.HostID
	var bestKey, wrapKey uint64
	haveBest, haveWrap := false, false
	for _, id := range members {
		k := NodeKey(id)
		if k >= target && (!haveBest || k < bestKey || (k == bestKey && id < best)) {
			best, bestKey, haveBest = id, k, true
		}
		if !haveWrap || k < wrapKey || (k == wrapKey && id < wrap) {
			wrap, wrapKey, haveWrap = id, k, true
		}
	}
	if haveBest {
		return best, true
	}
	if haveWrap {
		return wrap, true
	}
	return 0, false
}
