// Package megascale is the overlay-independent runtime for million-peer
// sharded simulations. PR 6 proved the paper's underlay-aware techniques
// survive at 10^6 peers, but the machinery that made it possible — flat
// struct-of-arrays node state over underlay.PeerTable, shard-resident
// request state machines, stateless hashed bootstrap, per-shard result
// counters — lived inside the compact Kademlia as a one-off. The paper's
// central claim is that underlay awareness is an overlay-independent
// layer, so the megascale machinery must be too: this package holds the
// shared pieces, and each overlay port (kademlia.CompactDHT,
// chord.CompactRing, gnutella.CompactFlood) provides only its routing
// geometry on top of them.
//
// Determinism rules every port must obey:
//
//   - Setup (construction, Bootstrap) is single-threaded and happens
//     before ShardedKernel.Run; tables built there are immutable during
//     the run unless a row is mutated exclusively by its owning shard.
//   - A peer's mutable state (routing-table row, liveness, dedup sets)
//     is touched only from the peer's owning shard. Anything crossing
//     shards goes through transport.ShardedNet.Send.
//   - No shared RNG streams: every random draw is a stateless hash of
//     (seed, peer, counter) so schedules are independent of the shard
//     count K.
//   - Aggregation (Stats, HealthStats) reads per-shard counters and is
//     safe only at epoch barriers or after the run.
//   - An in-flight message is a record recycled on per-shard free lists,
//     never a sync.Pool. A record belongs to the shard that holds the
//     message, and each free list is touched only by its own shard; a
//     record reaches another shard's list only by riding a message there
//     (see Iter and gnutella.CompactFlood).
package megascale

import (
	"unap2p/internal/churn"
	"unap2p/internal/sim"
	"unap2p/internal/transport"
	"unap2p/internal/underlay"
)

// Result reports one completed request (lookup, find-predecessor, flood
// query) to its onDone callback, which runs on the origin's shard.
type Result struct {
	Origin underlay.PeerID
	// Best is the peer the request converged on (the XOR-closest
	// candidate, the ring predecessor, the first responding hit — the
	// overlay defines it). Equal to Origin when nothing was found.
	Best underlay.PeerID
	// OK reports the overlay's ground-truth check: the exact global
	// answer was found (structured overlays) or a hit came back
	// (unstructured ones).
	OK bool
	// Hops is the number of request round trips (or the hop count of the
	// first hit for flood overlays).
	Hops int
}

// CompactOverlay is the contract a megascale overlay port provides. All
// three compact overlays (Kademlia, Chord, Gnutella) implement it, which
// is what lets one experiment sweep structured vs unstructured overlays
// under identical million-peer churn.
type CompactOverlay interface {
	// Bootstrap deterministically populates every peer's contacts from
	// the given seed. Single-threaded setup only, before the kernel runs.
	Bootstrap(seed uint64)
	// Query starts one request from origin with a per-request seed (the
	// target key/id is derived from it overlay-specifically). It must be
	// invoked on origin's owning shard; onDone (which may be nil) runs on
	// origin's shard when the request completes.
	Query(origin underlay.PeerID, seed uint64, onDone func(Result))
	// MegaStats aggregates the shared per-shard request counters.
	// Barrier-safe. (Named MegaStats so ports keep their own richer
	// Stats methods.)
	MegaStats() Stats
	// HealthStats exposes overlay health for telemetry sampling at epoch
	// barriers.
	HealthStats() map[string]float64
}

// Stats aggregates request counters across shards.
type Stats struct {
	Started, Done, OK uint64
	Hops              uint64
}

// SuccessRate is the fraction of completed requests that passed the
// overlay's ground-truth check.
func (s Stats) SuccessRate() float64 {
	if s.Done == 0 {
		return 0
	}
	return float64(s.OK) / float64(s.Done)
}

// MeanHops is the average round trips per completed request.
func (s Stats) MeanHops() float64 {
	if s.Done == 0 {
		return 0
	}
	return float64(s.Hops) / float64(s.Done)
}

// Counters is the per-shard request accounting every port shares. Each
// shard increments only its own row, so counting is race-free during a
// run and aggregation is barrier-safe.
type Counters struct {
	started, done, ok, hops []uint64
}

// NewCounters sizes the counters for a kernel with the given shard count.
func NewCounters(shards int) *Counters {
	return &Counters{
		started: make([]uint64, shards),
		done:    make([]uint64, shards),
		ok:      make([]uint64, shards),
		hops:    make([]uint64, shards),
	}
}

// Start counts one request started on shard s.
func (c *Counters) Start(s int) { c.started[s]++ }

// Finish counts one request completed on shard s.
func (c *Counters) Finish(s int, ok bool, hops int) {
	c.done[s]++
	c.hops[s] += uint64(hops)
	if ok {
		c.ok[s]++
	}
}

// Stats aggregates all shards. Barrier-safe.
func (c *Counters) Stats() Stats {
	var s Stats
	for i := range c.started {
		s.Started += c.started[i]
		s.Done += c.done[i]
		s.OK += c.ok[i]
		s.Hops += c.hops[i]
	}
	return s
}

// Health renders the aggregate counters as the standard overlay health
// map ports return from HealthStats.
func (c *Counters) Health() map[string]float64 {
	s := c.Stats()
	return map[string]float64{
		"lookups_started": float64(s.Started),
		"lookups_done":    float64(s.Done),
		"success_rate":    s.SuccessRate(),
		"mean_hops":       s.MeanHops(),
	}
}

// ChurnConfig parameterizes AttachChurn.
type ChurnConfig struct {
	// Frac is the churning fraction denominator: one peer in Frac cycles
	// (hash-selected, K-independent). Frac <= 0 means every peer churns.
	Frac int
	// MeanOn and MeanOff are the exponential session and absence means.
	MeanOn, MeanOff sim.Duration
}

// AttachChurn wires the standard megascale churn model over a sharded
// net: a stateless-hash-driven churn.ShardDriver whose flip schedule is
// identical for every shard count. Call during setup; the returned
// driver is started.
func AttachChurn(net *transport.ShardedNet, seed uint64, cfg ChurnConfig) *churn.ShardDriver {
	drv := &churn.ShardDriver{
		Seed: seed, Table: net.Peers(), Part: net.Partition(), Sk: net.Kernel(),
		MeanOn: cfg.MeanOn, MeanOff: cfg.MeanOff,
	}
	if cfg.Frac > 0 {
		frac := uint64(cfg.Frac)
		drv.Churns = func(p underlay.PeerID) bool {
			return Mix64(seed^0xcc^uint64(p))%frac == 0
		}
	}
	drv.Start()
	return drv
}

// Mix64 is the splitmix64 finalizer — the stateless hash every megascale
// draw (ids, bootstrap contacts, churn flips, workload targets) derives
// from.
func Mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// ReplaceCrossAS is the compact AS-aware neighbor-replacement hook (the
// paper's proximity neighbor selection applied to a full slot list):
// when candidate q shares self's AS, it returns the index of a cross-AS
// entry in slots to replace, or -1 when q is cross-AS or every entry
// already shares self's AS. Replacement at equal slot correctness lowers
// per-hop latency without changing routing behavior.
func ReplaceCrossAS(pt *underlay.PeerTable, self, q underlay.PeerID, slots []uint32) int {
	as := pt.AS(self)
	if pt.AS(q) != as {
		return -1
	}
	for i, s := range slots {
		if pt.AS(underlay.PeerID(s)) != as {
			return i
		}
	}
	return -1
}
