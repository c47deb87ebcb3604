package churn

import (
	"math"

	"unap2p/internal/sim"
	"unap2p/internal/underlay"
)

// ShardDriver drives join/leave dynamics for PeerTable peers on a
// sharded kernel. Each peer's events are scheduled on its owning shard,
// so liveness flips stay shard-local, and every session/off-time draw is
// a stateless hash of (seed, peer, draw counter) — no shared RNG stream —
// which makes the whole churn schedule independent of the shard count K:
// the same seed produces the same joins and leaves at the same simulated
// times for any partition.
type ShardDriver struct {
	Seed  uint64
	Table *underlay.PeerTable
	Part  *underlay.Partition
	Sk    *sim.ShardedKernel

	// MeanOn and MeanOff parameterize exponential session and absence
	// durations (the classical memoryless churn model).
	MeanOn, MeanOff sim.Duration

	// Churns selects which peers churn at all; nil means every peer. A
	// deterministic predicate (hash of the peer id) keeps the choice
	// K-independent too.
	Churns func(p underlay.PeerID) bool

	// OnJoin and OnLeave run on the peer's owning shard right after its
	// liveness flips. They must only touch shard-owned state.
	OnJoin  func(p underlay.PeerID)
	OnLeave func(p underlay.PeerID)

	// joins/leaves are per-shard counters, owned by each shard.
	joins, leaves []uint64
}

// draw maps (seed, peer, counter) to an exponential duration with the
// given mean via sim.Mix64 — stateless, so identical for any shard count.
func (d *ShardDriver) draw(p underlay.PeerID, ctr uint64, mean sim.Duration) sim.Duration {
	x := sim.Mix64(d.Seed ^ (uint64(p)+1)*0x9e3779b97f4a7c15 ^ ctr*0xbf58476d1ce4e5b9)
	u := (float64(x>>11) + 0.5) / (1 << 53) // in (0,1)
	return sim.Duration(-math.Log(u) * float64(mean))
}

// Start schedules the first departure for every (churning) peer. Call
// during single-threaded setup, before ShardedKernel.Run.
func (d *ShardDriver) Start() {
	if d.MeanOn <= 0 || d.MeanOff <= 0 {
		panic("churn: ShardDriver needs positive MeanOn and MeanOff")
	}
	d.joins = make([]uint64, d.Sk.NumShards())
	d.leaves = make([]uint64, d.Sk.NumShards())
	for i := 0; i < d.Table.Len(); i++ {
		p := underlay.PeerID(i)
		if d.Churns != nil && !d.Churns(p) {
			continue
		}
		d.scheduleLeave(p, 0)
	}
}

func (d *ShardDriver) scheduleLeave(p underlay.PeerID, ctr uint64) {
	shard := d.Part.ShardOf(d.Table, p)
	d.Sk.Shard(shard).Schedule(d.draw(p, ctr, d.MeanOn), func() {
		d.Table.SetUp(p, false)
		d.leaves[shard]++
		if d.OnLeave != nil {
			d.OnLeave(p)
		}
		d.scheduleJoin(p, ctr+1)
	})
}

func (d *ShardDriver) scheduleJoin(p underlay.PeerID, ctr uint64) {
	shard := d.Part.ShardOf(d.Table, p)
	d.Sk.Shard(shard).Schedule(d.draw(p, ctr, d.MeanOff), func() {
		d.Table.SetUp(p, true)
		d.joins[shard]++
		if d.OnJoin != nil {
			d.OnJoin(p)
		}
		d.scheduleLeave(p, ctr+1)
	})
}

// Joins reports total rejoin events so far. Safe at barriers.
func (d *ShardDriver) Joins() uint64 { return sum(d.joins) }

// Leaves reports total departure events so far. Safe at barriers.
func (d *ShardDriver) Leaves() uint64 { return sum(d.leaves) }

func sum(xs []uint64) uint64 {
	var n uint64
	for _, x := range xs {
		n += x
	}
	return n
}
