package kademlia

import (
	"unap2p/internal/sim"
	"unap2p/internal/underlay"
)

// LookupResult summarizes one iterative lookup.
type LookupResult struct {
	// Closest are the K nearest contacts found, nearest first.
	Closest []Contact
	// Hops is the number of lookup rounds.
	Hops int
	// Msgs is the number of RPC messages (requests + responses).
	Msgs int
	// Latency is the wall-clock cost: per round, the α requests run in
	// parallel, so the round costs the slowest RTT of the batch.
	Latency sim.Duration
}

// Lookup performs an iterative FIND_NODE from the given host toward
// target, updating routing tables along the way (every response teaches
// the querier new contacts, and every queried node observes the querier).
// It is the synchronous α-batch driver over the shared lookup.Shortlist:
// each round queries the up-to-α nearest unqueried of the K best.
func (d *DHT) Lookup(from underlay.HostID, target NodeID) LookupResult {
	origin := d.nodes[from]
	if origin == nil {
		return LookupResult{}
	}

	var res LookupResult
	short := &d.short
	short.Reset(d.Cfg.K)
	// The origin never queries itself: it enters the shortlist (when a
	// peer hands it back) already marked queried.
	for _, e := range origin.closest(target, d.Cfg.K) {
		short.Offer(e.ID, e.Dist, e.ID.ID == origin.ID)
	}

	for {
		batch := d.batch[:0]
		for len(batch) < alpha {
			c, ok := short.Next()
			if !ok {
				break
			}
			batch = append(batch, c)
		}
		d.batch = batch
		if len(batch) == 0 {
			break
		}
		res.Hops++
		var roundLatency sim.Duration
		for _, c := range batch {
			peer := d.byID[c.ID]
			if peer == nil || !peer.host.Up {
				continue // dead contact: RPC times out, contributes nothing
			}
			// Request and response through the transport (which counts
			// both messages, charges the underlay, and records the
			// AS-pair traffic).
			rt := d.T.RoundTrip(origin.host, peer.host,
				RPCBytes, RPCBytes, "find_node", "response")
			res.Msgs += 2
			if !rt.OK {
				continue // RPC lost: times out, contributes nothing
			}
			if rt.Latency > roundLatency {
				roundLatency = rt.Latency
			}
			// The queried node learns about the querier; the querier
			// learns the peer's K closest to the target.
			peer.observe(origin.Contact)
			for _, e := range peer.closest(target, d.Cfg.K) {
				origin.observe(e.ID)
				short.Offer(e.ID, e.Dist, e.ID.ID == origin.ID)
			}
		}
		res.Latency += roundLatency
	}

	res.Closest = short.IDs()
	return res
}
