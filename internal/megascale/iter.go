package megascale

import (
	"unap2p/internal/lookup"
	"unap2p/internal/transport"
	"unap2p/internal/underlay"
)

// Iter is the generic shard-resident α-parallel iterative request driver
// — the state machine extracted from the compact Kademlia's lookup and
// shared with every structured port. It is the asynchronous driver over
// the shared lookup.Shortlist: a request keeps the Width candidates
// nearest its target under the overlay's distance metric, keeps up to
// Alpha requests in flight to the nearest unqueried of them, executes
// each hop on the target peer's shard (the only place its liveness may be
// read), and returns replies to the origin's shard through the sharded
// transport — so every port obeys the kernel's shard-ownership rules by
// construction.
type Iter struct {
	// Net carries every RPC; ReqClass/RepClass are the transport classes
	// for request and reply traffic, RPCBytes the size charged per
	// message.
	Net                *transport.ShardedNet
	ReqClass, RepClass int
	RPCBytes           uint64

	// Alpha is the request parallelism; Width caps the candidate working
	// set (3×K in Kademlia terms).
	Alpha, Width int

	// Ctr receives start/finish accounting on the origin's shard.
	Ctr *Counters

	// Dist returns peer q's distance to target under the overlay's
	// metric; lower is closer, and distinct peers are at distinct
	// distances. Must be a pure read of immutable state.
	Dist func(q underlay.PeerID, target uint64) uint64
	// Candidates returns q's best known contacts toward target. It
	// executes on q's owning shard and may read q's shard-owned table
	// row.
	Candidates func(q underlay.PeerID, target uint64) []underlay.PeerID
	// Learn, when non-nil, records a discovered contact at the origin
	// (routing-table maintenance); it runs on the origin's shard.
	Learn func(origin, c underlay.PeerID)
	// OK reports whether the converged best peer is the exact
	// ground-truth answer; it runs on the origin's shard at completion.
	OK func(best underlay.PeerID, target uint64) bool
}

// iterState is one in-flight request; it lives on the origin peer's
// shard and every mutation of it happens there.
type iterState struct {
	it     *Iter
	origin underlay.PeerID
	target uint64
	short  lookup.Shortlist[underlay.PeerID]
	inFly  int
	hops   int
	done   bool
	onDone func(Result)
}

// Start begins an iterative request for target from peer origin. It must
// be invoked on origin's owning shard (schedule it there). onDone, which
// may be nil, runs on origin's shard when the request converges.
func (it *Iter) Start(origin underlay.PeerID, target uint64, onDone func(Result)) {
	it.Ctr.Start(it.Net.ShardOf(origin))
	st := &iterState{it: it, origin: origin, target: target, onDone: onDone}
	st.short.Reset(it.Width)
	for _, c := range it.Candidates(origin, target) {
		st.offer(c)
	}
	st.step()
}

// step issues requests to the nearest unqueried candidates, up to Alpha
// in flight. Runs on the origin's shard.
func (st *iterState) step() {
	if st.done {
		return
	}
	for st.inFly < st.it.Alpha {
		q, ok := st.short.Next()
		if !ok {
			break
		}
		st.inFly++
		st.hops++
		st.request(q)
	}
	if st.inFly == 0 {
		st.finish()
	}
}

// request sends one routing RPC to peer q: the request executes on q's
// shard (the only place q's liveness and table may be read) and the
// reply returns to the origin's shard through the transport.
func (st *iterState) request(q underlay.PeerID) {
	it := st.it
	origin, target := st.origin, st.target
	it.Net.Send(origin, q, it.ReqClass, it.RPCBytes, func() {
		// On q's shard now.
		var found []underlay.PeerID
		alive := it.Net.Peers().Up(q)
		if alive {
			found = it.Candidates(q, target)
		}
		// Reply (or a zero-byte "timeout" nack after the same RTT when q
		// is down — a dead peer costs the request one round trip).
		bytes := it.RPCBytes
		if !alive {
			bytes = 0
		}
		it.Net.Send(q, origin, it.RepClass, bytes, func() {
			// Back on origin's shard.
			st.inFly--
			if alive {
				for _, c := range found {
					if it.Learn != nil {
						it.Learn(origin, c)
					}
					st.offer(c)
				}
			}
			st.step()
		})
	})
}

// offer hands candidate c to the shortlist. The origin never lists
// itself: Best is the nearest peer other than the asker.
func (st *iterState) offer(c underlay.PeerID) {
	if c != st.origin {
		st.short.Offer(c, st.it.Dist(c, st.target), false)
	}
}

// finish completes the request on the origin's shard.
func (st *iterState) finish() {
	st.done = true
	it := st.it
	best := st.origin
	if e := st.short.Entries(); len(e) > 0 {
		best = e[0].ID
	}
	res := Result{
		Origin: st.origin, Best: best,
		OK: it.OK(best, st.target), Hops: st.hops,
	}
	it.Ctr.Finish(it.Net.ShardOf(st.origin), res.OK, st.hops)
	if st.onDone != nil {
		st.onDone(res)
	}
}
