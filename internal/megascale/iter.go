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
//
// Request state and in-flight RPCs are records recycled on the origin
// shard's free lists (see iterShard): a warmed driver allocates nothing
// per lookup or per message. Build one with NewIter.
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
	// Candidates appends q's best known contacts toward target to buf and
	// returns the result. It executes on q's owning shard and may read
	// q's shard-owned table row.
	Candidates func(q underlay.PeerID, target uint64, buf []underlay.PeerID) []underlay.PeerID
	// Learn, when non-nil, records a discovered contact at the origin
	// (routing-table maintenance); it runs on the origin's shard.
	Learn func(origin, c underlay.PeerID)
	// OK reports whether the converged best peer is the exact
	// ground-truth answer; it runs on the origin's shard at completion.
	OK func(best underlay.PeerID, target uint64) bool

	shards []*iterShard // indexed by origin shard
}

// iterShard is one shard's free lists and scratch. Only lookups that
// shard originated take from or return to it, and every take and return
// runs on that shard, so no two shards ever touch the same list. Each
// shard's lists are a separate allocation so they share no cache line.
type iterShard struct {
	states []*iterState
	rpcs   []*iterRPC
	cand   []underlay.PeerID // Start's candidate buffer
}

// NewIter returns a driver over the settings in cfg with an empty free
// list per kernel shard.
func NewIter(cfg Iter) *Iter {
	it := &cfg
	it.shards = make([]*iterShard, it.Net.Kernel().NumShards())
	for i := range it.shards {
		it.shards[i] = &iterShard{}
	}
	return it
}

// iterState is one in-flight request; it lives on the origin peer's
// shard and every mutation of it happens there. It returns to its home
// shard's free list once onDone has run, keeping the shortlist's array.
type iterState struct {
	it     *Iter
	home   *iterShard
	oshard int
	origin underlay.PeerID
	target uint64
	short  lookup.Shortlist[underlay.PeerID]
	inFly  int
	hops   int
	onDone func(Result)
}

// iterRPC is one request to peer q and its reply. It is taken from the
// origin shard's free list at send time and returned there when the
// reply lands; in between, only q's shard writes alive and found, and the
// origin's shard reads them after the reply's Send has handed the record
// back. Its two handlers are bound once, when the record is first
// allocated, so sending either message allocates nothing.
type iterRPC struct {
	st         *iterState
	q          underlay.PeerID
	alive      bool
	found      []underlay.PeerID
	onRequest  func()
	onResponse func()
}

// Start begins an iterative request for target from peer origin. It must
// be invoked on origin's owning shard (schedule it there). onDone, which
// may be nil, runs on origin's shard when the request converges.
func (it *Iter) Start(origin underlay.PeerID, target uint64, onDone func(Result)) {
	s := it.Net.ShardOf(origin)
	it.Ctr.Start(s)
	home := it.shards[s]
	var st *iterState
	if n := len(home.states); n > 0 {
		st = home.states[n-1]
		home.states = home.states[:n-1]
	} else {
		st = &iterState{it: it, home: home, oshard: s}
	}
	st.origin, st.target, st.onDone = origin, target, onDone
	st.inFly, st.hops = 0, 0
	st.short.Reset(it.Width)
	home.cand = it.Candidates(origin, target, home.cand[:0])
	for _, c := range home.cand {
		st.offer(c)
	}
	st.step()
}

// step issues requests to the nearest unqueried candidates, up to Alpha
// in flight. Runs on the origin's shard.
func (st *iterState) step() {
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
	var r *iterRPC
	if n := len(st.home.rpcs); n > 0 {
		r = st.home.rpcs[n-1]
		st.home.rpcs = st.home.rpcs[:n-1]
	} else {
		r = &iterRPC{}
		r.onRequest, r.onResponse = r.request, r.response
	}
	r.st, r.q = st, q
	it := st.it
	it.Net.Send(st.origin, q, it.ReqClass, it.RPCBytes, r.onRequest)
}

// request runs on q's shard: it reads q's liveness and candidates and
// sends the reply (or a zero-byte "timeout" nack after the same RTT when
// q is down — a dead peer costs the request one round trip). The
// state's origin and target are fixed while the RPC is in flight.
func (r *iterRPC) request() {
	st := r.st
	it := st.it
	r.alive = it.Net.Peers().Up(r.q)
	r.found = r.found[:0]
	bytes := uint64(0)
	if r.alive {
		r.found = it.Candidates(r.q, st.target, r.found)
		bytes = it.RPCBytes
	}
	it.Net.Send(r.q, st.origin, it.RepClass, bytes, r.onResponse)
}

// response runs back on the origin's shard: it hands the record back to
// the free list, then feeds what q returned to the shortlist.
func (r *iterRPC) response() {
	st := r.st
	it := st.it
	st.inFly--
	if r.alive {
		for _, c := range r.found {
			if it.Learn != nil {
				it.Learn(st.origin, c)
			}
			st.offer(c)
		}
	}
	r.st = nil
	st.home.rpcs = append(st.home.rpcs, r)
	st.step()
}

// offer hands candidate c to the shortlist. The origin never lists
// itself: Best is the nearest peer other than the asker.
func (st *iterState) offer(c underlay.PeerID) {
	if c != st.origin {
		st.short.Offer(c, st.it.Dist(c, st.target), false)
	}
}

// finish completes the request on the origin's shard and, once onDone
// has returned, hands the state back to the free list.
func (st *iterState) finish() {
	it := st.it
	best := st.origin
	if e := st.short.Entries(); len(e) > 0 {
		best = e[0].ID
	}
	res := Result{
		Origin: st.origin, Best: best,
		OK: it.OK(best, st.target), Hops: st.hops,
	}
	it.Ctr.Finish(st.oshard, res.OK, st.hops)
	if st.onDone != nil {
		st.onDone(res)
	}
	st.onDone = nil
	st.home.states = append(st.home.states, st)
}
