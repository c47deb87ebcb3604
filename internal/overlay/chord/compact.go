package chord

import (
	"unap2p/internal/lookup"
	"unap2p/internal/megascale"
	"unap2p/internal/transport"
	"unap2p/internal/underlay"
)

// CompactConfig parameterizes a CompactRing.
type CompactConfig struct {
	// Aware, when true, fills each finger slot with a same-AS node from
	// the slot's candidate band when one exists — Castro et al.'s
	// proximity neighbor selection: any node in [2^j, 2^(j+1)) ranks
	// ahead keeps the O(log n) bound, so the choice is free and the
	// per-hop latency drops.
	Aware bool
}

// DefaultCompactConfig is the unaware ring.
func DefaultCompactConfig() CompactConfig { return CompactConfig{} }

// Compact ring parameters, sized for megascale runs.
const (
	// compactSuccessors is the successor-list length (fault tolerance and
	// the last-mile contacts of every lookup).
	compactSuccessors = 8
	// compactAlpha is the lookup parallelism. 1 is the classic sequential
	// find_successor walk; 2 keeps a spare in flight so a dead hop does
	// not stall the lookup for a full round trip.
	compactAlpha = 2
	// awareProbe caps how many band candidates the aware finger fill
	// scans (bounds Bootstrap cost at megascale).
	awareProbe = 16
)

// CompactRing is a struct-of-arrays Chord ring over PeerTable peers for
// sharded megascale runs, the second port onto the megascale runtime:
// ids and ring ground truth come from a megascale.IDSpace, the iterative
// find-predecessor walk runs on the shared megascale.Iter driver, and
// accounting lives in megascale.Counters. Chord-specific is only the
// geometry — flat successor and finger arrays in ring-rank space, and
// the clockwise predecessor metric.
//
// Per-peer state is two flat slices: compactSuccessors entries of successor
// list and ~log2(n) rank-doubling fingers (finger j sits 2^j ranks
// ahead, or anywhere in [2^j, 2^(j+1)) under Aware). Tables are built
// once at Bootstrap with global knowledge (the standard simulation
// shortcut — join/stabilize is not the object of study) and stay
// immutable during the run, so any shard may read any row.
type CompactRing struct {
	cfg CompactConfig
	net *transport.ShardedNet

	space *megascale.IDSpace
	succ  []uint32 // n×S successor peers, rank order
	fing  []uint32 // n×F finger peers, finger j ≥ 2^j ranks ahead
	nSucc int      // entries per succ row (min(S, n-1))
	nFing int      // entries per finger row

	ctr  *megascale.Counters
	iter *megascale.Iter
}

// NewCompactRing builds a compact ring over every peer in the net's
// table. Node ids are hashed from (seed, peer) like every megascale
// overlay; reqClass and repClass are the transport classes for routing
// traffic. Call Bootstrap before the kernel runs.
func NewCompactRing(net *transport.ShardedNet, cfg CompactConfig, seed uint64, reqClass, repClass int) *CompactRing {
	n := net.Peers().Len()
	c := &CompactRing{
		cfg: cfg, net: net,
		space: megascale.NewIDSpace(n, seed),
		ctr:   megascale.NewCounters(net.Kernel().NumShards()),
	}
	c.nSucc = compactSuccessors
	if c.nSucc > n-1 {
		c.nSucc = n - 1
	}
	if c.nSucc < 0 {
		c.nSucc = 0
	}
	c.nFing = 0
	for 1<<c.nFing < n {
		c.nFing++
	}
	c.iter = megascale.NewIter(megascale.Iter{
		Net: net, ReqClass: reqClass, RepClass: repClass, RPCBytes: rpcBytes,
		Alpha: compactAlpha, Width: 3 * (compactSuccessors + 1), Ctr: c.ctr,
		Dist:       c.predDist,
		Candidates: c.candidates,
		OK: func(best underlay.PeerID, target uint64) bool {
			return c.space.ID(best) == c.space.PredecessorID(target)
		},
	})
	return c
}

// ID returns peer p's ring position.
func (c *CompactRing) ID(p underlay.PeerID) ID { return ID(c.space.ID(p)) }

// predDist is the lookup metric: how far target's predecessor slot is
// ahead of q going clockwise. The global minimum over all peers is the
// ring predecessor of target; nodes at or past target wrap to huge
// distances and sort last, so the walk never overshoots.
func (c *CompactRing) predDist(q underlay.PeerID, target uint64) uint64 {
	return megascale.CWDist(c.space.ID(q), target-1)
}

// Bootstrap builds every successor list and finger table. Fingers live
// in rank space: finger j of a peer at rank r is the peer 2^j ranks
// ahead — with uniformly hashed ids that is the classic successor(p+2^j)
// table, and it guarantees gap-halving convergence for the predecessor
// walk. Under Aware, slot j instead takes the first same-AS peer among
// the band's first awareProbe ranks (all of [2^j, 2^(j+1)) is correct).
// Single-threaded setup only. The seed only matters for id assignment,
// which already happened in NewCompactRing; topology is a pure function
// of the rank order.
func (c *CompactRing) Bootstrap(seed uint64) {
	n := c.space.Len()
	c.succ = make([]uint32, n*c.nSucc)
	c.fing = make([]uint32, n*c.nFing)
	pt := c.net.Peers()
	for p := 0; p < n; p++ {
		r := c.space.Rank(underlay.PeerID(p))
		for s := 0; s < c.nSucc; s++ {
			c.succ[p*c.nSucc+s] = uint32(c.space.ByRank((r + 1 + s) % n))
		}
		for j := 0; j < c.nFing; j++ {
			off := 1 << j
			pick := c.space.ByRank((r + off) % n)
			if c.cfg.Aware {
				// Band [2^j, 2^(j+1)) ∩ [.., n): probe a bounded prefix
				// for a same-AS node.
				limit := off
				if off > n-off {
					limit = n - off
				}
				if limit > awareProbe {
					limit = awareProbe
				}
				for b := 0; b < limit; b++ {
					q := c.space.ByRank((r + off + b) % n)
					if pt.AS(q) == pt.AS(underlay.PeerID(p)) {
						pick = q
						break
					}
				}
			}
			c.fing[p*c.nFing+j] = uint32(pick)
		}
	}
}

// candidates appends to buf q's best contacts toward target — the
// compactSuccessors nearest of its successor list and fingers under the
// predecessor metric, the compact closest_preceding_node: every table
// entry is offered to a lookup.Shortlist on the stack (which also drops a
// peer listed in both rows) and the survivors are read off. Executes on
// q's shard; the rows are immutable after Bootstrap so the read is safe
// from anywhere.
func (c *CompactRing) candidates(q underlay.PeerID, target uint64, buf []underlay.PeerID) []underlay.PeerID {
	var stack [shortlistStack]lookup.Entry[underlay.PeerID]
	best := lookup.New(stack[:], compactSuccessors)
	for _, p := range c.succ[int(q)*c.nSucc:][:c.nSucc] {
		best.Offer(underlay.PeerID(p), c.predDist(underlay.PeerID(p), target), false)
	}
	for _, p := range c.fing[int(q)*c.nFing:][:c.nFing] {
		best.Offer(underlay.PeerID(p), c.predDist(underlay.PeerID(p), target), false)
	}
	return best.AppendIDs(buf)
}

// shortlistStack is the widest successor list whose candidate ranking
// stays on the stack (compactSuccessors is 8).
const shortlistStack = 16

// PredecessorGlobal returns the id of target's exact ring predecessor —
// the ground truth every lookup is checked against.
func (c *CompactRing) PredecessorGlobal(target ID) ID {
	return ID(c.space.PredecessorID(uint64(target)))
}

// SuccessorGlobal returns the id owning target (the first node clockwise
// from target, inclusive).
func (c *CompactRing) SuccessorGlobal(target ID) ID {
	return ID(c.space.ID(c.space.ByRank(c.space.SuccessorRank(uint64(target)))))
}

// Lookup starts an iterative find-predecessor walk for target from peer
// origin. It must be invoked on origin's owning shard; onDone (which may
// be nil) runs on origin's shard when the walk converges. Result.OK
// reports whether the exact ring predecessor was found — equivalently,
// whether its successor list resolves target's owner.
func (c *CompactRing) Lookup(origin underlay.PeerID, target ID, onDone func(megascale.Result)) {
	c.iter.Start(origin, uint64(target), onDone)
}

// Query implements megascale.CompactOverlay: one lookup for a
// pseudo-random ring target derived from the per-request seed.
func (c *CompactRing) Query(origin underlay.PeerID, seed uint64, onDone func(megascale.Result)) {
	c.iter.Start(origin, megascale.Mix64(seed), onDone)
}

// MegaStats implements megascale.CompactOverlay.
func (c *CompactRing) MegaStats() megascale.Stats { return c.ctr.Stats() }

// HealthStats exposes lookup health for telemetry sampling at barriers.
func (c *CompactRing) HealthStats() map[string]float64 { return c.ctr.Health() }
