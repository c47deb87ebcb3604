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

// CompactRing is a Chord ring over PeerTable peers for sharded megascale
// runs, the second port onto the megascale runtime: ids and ring ground
// truth come from a megascale.IDSpace, the iterative find-predecessor
// walk runs on the shared megascale.Iter driver, and accounting lives in
// megascale.Counters. Chord-specific is only the geometry — successors
// and fingers in ring-rank space, and the clockwise predecessor metric.
//
// A peer's table is compactSuccessors successors and ~log2(n)
// rank-doubling fingers. With global knowledge (the standard simulation
// shortcut — join/stabilize is not the object of study) and no table
// changes during the run, every entry is a pure function of the id
// space's rank order, so the ring stores none: candidates derives the
// entries it offers from the peer's rank, and any shard may do so.
type CompactRing struct {
	cfg CompactConfig
	net *transport.ShardedNet

	space *megascale.IDSpace

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

// Bootstrap implements megascale.CompactOverlay and builds nothing: the
// table candidates reads is derived from the rank order NewCompactRing
// already fixed, so the seed, which only matters for id assignment, has
// nothing left to choose.
func (c *CompactRing) Bootstrap(uint64) {}

// sameAS returns the first of the limit ranks from f whose peer shares
// q's AS, or f when none does — the Aware pick for a finger band
// starting at f.
func (c *CompactRing) sameAS(q underlay.PeerID, f, limit int) int {
	pt := c.net.Peers()
	for b := 0; b < limit; b++ {
		if e := wrap(f+b, c.space.Len()); pt.AS(c.space.ByRank(e)) == pt.AS(q) {
			return e
		}
	}
	return f
}

// wrap reduces a rank below 2n onto the ring.
func wrap(r, n int) int {
	if r >= n {
		r -= n
	}
	return r
}

// candidates appends to buf q's best contacts toward target — the
// compactSuccessors nearest of its successor list and fingers under the
// predecessor metric, the compact closest_preceding_node. Successor s of
// the peer at rank r is rank r+s, and fingers live in rank space: finger
// j is 2^j ranks ahead — with uniformly hashed ids that is the classic
// successor(p+2^j) table, and it guarantees gap-halving convergence for
// the predecessor walk. Under Aware the slot instead takes the first
// same-AS peer among the band's first awareProbe ranks (all of
// [2^j, 2^(j+1)) is correct). Every entry is offered to a
// lookup.Shortlist on the stack (which also drops a peer that is both
// successor and finger) and the survivors are read off; an entry's
// distance comes from the rank-ordered id, so a far finger costs one
// random read, not two. Executes on q's shard; the table is a pure
// function of the immutable id space, so the read is safe from anywhere.
func (c *CompactRing) candidates(q underlay.PeerID, target uint64, buf []underlay.PeerID) []underlay.PeerID {
	var stack [shortlistStack]lookup.Entry[underlay.PeerID]
	best := lookup.New(stack[:], compactSuccessors)
	n, r, pred := c.space.Len(), c.space.Rank(q), target-1
	for s := 1; s <= min(compactSuccessors, n-1); s++ {
		e := wrap(r+s, n)
		best.Offer(c.space.ByRank(e), megascale.CWDist(c.space.IDAt(e), pred), false)
	}
	for off := 1; off < n; off *= 2 {
		e := wrap(r+off, n)
		if c.cfg.Aware {
			// Band [off, 2·off) ∩ [.., n): probe a bounded prefix.
			e = c.sameAS(q, e, min(off, n-off, awareProbe))
		}
		best.Offer(c.space.ByRank(e), megascale.CWDist(c.space.IDAt(e), pred), false)
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
