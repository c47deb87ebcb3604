package gnutella

import (
	"math"
	"math/bits"
	"sync/atomic"

	"unap2p/internal/megascale"
	"unap2p/internal/sim"
	"unap2p/internal/transport"
	"unap2p/internal/underlay"
)

// CompactConfig parameterizes a CompactFlood.
type CompactConfig struct {
	// QueryTTL bounds the flood depth over the ultrapeer graph, at most
	// math.MaxInt16 (a message carries it narrowed; see floodQuery).
	QueryTTL int
	// Aware, when true, biases ultra neighbor and leaf parent choices
	// toward same-AS candidates (Aggarwal et al.'s biased neighbor
	// selection, the paper's central Gnutella evidence) while keeping
	// the hashed fallback links that hold the graph together.
	Aware bool
}

// DefaultCompactConfig floods three hops deep, unaware.
func DefaultCompactConfig() CompactConfig { return CompactConfig{QueryTTL: 3} }

// Compact overlay parameters, sized for megascale runs.
const (
	// ultraShare elects one peer in ultraShare as an ultrapeer (hashed,
	// deterministic, K-independent).
	ultraShare = 8
	// compactUltraDegree is the target ultra↔ultra links initiated per
	// ultrapeer; accepted links can double a node's degree, up to
	// compactMaxDeg.
	compactUltraDegree = 6
	compactMaxDeg      = 2 * compactUltraDegree
	// compactLeafParents is how many ultrapeers each leaf attaches to.
	compactLeafParents = 2
	// replicas is how many peers own each key (the QRP-style shared-file
	// placement).
	replicas = 3
	// queryTimeout is the simulated deadline after which a query is
	// scored: a hit that arrived by then counts, silence is a miss.
	queryTimeout sim.Duration = 3000
	// awareProbe is how many extra hash draws an aware pick spends
	// looking for a same-AS candidate before falling back.
	awareProbe = 8
)

// CompactFlood is a struct-of-arrays Gnutella over PeerTable peers for
// sharded megascale runs — the unstructured port onto the megascale
// runtime, which is what turns the million-peer study into the
// structured-vs-unstructured comparison the 2009 paper could only
// sketch. A flood routes by no id, so peers have none; accounting lives
// in megascale.Counters, and the topology is flat arrays: a hashed
// ultrapeer election, an ultra↔ultra neighbor table and per-leaf parent
// slots.
//
// A query is a TTL-bounded flood over the ultrapeer graph with
// QRP-style last-hop routing: an ultrapeer knows which of its leaves
// share a key (statically, from the deterministic replica placement)
// and forwards the query only to those, which answer with a QueryHit
// straight to the origin. Flood dedup state belongs to the query (see
// floodQuery), one peer set per shard, so every mutation stays on the
// owning shard. A query counts its deadline and its messages in flight,
// and the last of them to run clears its sets and frees it for reuse.
// Messages are recycled records (see floodMsg). The ground-truth BFS at
// each query's deadline reuses its shard's scratch.
type CompactFlood struct {
	cfg CompactConfig
	net *transport.ShardedNet

	uidx  []int32  // dense ultra index per peer, -1 for leaves
	ultra []uint32 // ultra peer ids, election order
	nbr   []uint32 // U×compactMaxDeg ultra neighbors
	ncnt  []uint8  // neighbor fill per ultra
	par   []uint32 // n×compactLeafParents parent ultras (leaf rows only)
	pcnt  []uint8  // parent fill per peer

	qryClass, hitClass int

	ctr *megascale.Counters
	// potential counts, per shard, queries whose key was statically
	// reachable (the ground-truth denominator).
	potential []uint64
	// scratch is the ground-truth BFS state of each shard, touched only by
	// deadline events of queries that shard originated.
	scratch []bfsScratch
	// spare holds each shard's free message records and queries, one
	// allocation per shard so that no two shards write the same cache
	// line.
	spare []*msgList
}

// NewCompactFlood builds a compact Gnutella over every peer in the
// net's table. qryClass and hitClass are the transport classes for
// query and query-hit traffic. The third argument, the id seed of the
// structured overlays' constructors, goes unused: a flood has no ids,
// and Bootstrap's seed draws the topology. Call Bootstrap before the
// kernel runs.
func NewCompactFlood(net *transport.ShardedNet, cfg CompactConfig, _ uint64, qryClass, hitClass int) *CompactFlood {
	n := net.Peers().Len()
	if cfg.QueryTTL <= 0 || cfg.QueryTTL > math.MaxInt16 {
		panic("gnutella: bad CompactConfig")
	}
	shards := net.Kernel().NumShards()
	g := &CompactFlood{
		cfg: cfg, net: net,
		uidx:     make([]int32, n),
		qryClass: qryClass, hitClass: hitClass,
		ctr:       megascale.NewCounters(shards),
		potential: make([]uint64, shards),
		scratch:   make([]bfsScratch, shards),
		spare:     make([]*msgList, shards),
	}
	for i := range g.spare {
		g.spare[i] = &msgList{away: make([]*floodMsg, shards)}
	}
	return g
}

// IsUltra reports whether peer p was elected ultrapeer.
func (g *CompactFlood) IsUltra(p underlay.PeerID) bool { return g.uidx[p] >= 0 }

// Ultras reports the ultrapeer count.
func (g *CompactFlood) Ultras() int { return len(g.ultra) }

// Bootstrap elects ultrapeers and builds the whole flat topology
// deterministically from the seed. Single-threaded setup only.
func (g *CompactFlood) Bootstrap(seed uint64) {
	n := len(g.uidx)
	pt := g.net.Peers()
	// Hashed ultrapeer election; a tiny network promotes everyone so the
	// graph exists.
	for p := range g.uidx {
		g.uidx[p] = -1
	}
	g.ultra = g.ultra[:0]
	for p := 0; p < n; p++ {
		if megascale.Mix64(seed^0xa17a^uint64(p))%uint64(ultraShare) == 0 {
			g.uidx[p] = int32(len(g.ultra))
			g.ultra = append(g.ultra, uint32(p))
		}
	}
	if len(g.ultra) < 2 {
		g.ultra = g.ultra[:0]
		for p := 0; p < n; p++ {
			g.uidx[p] = int32(p)
			g.ultra = append(g.ultra, uint32(p))
		}
	}
	u := len(g.ultra)
	g.nbr = make([]uint32, u*compactMaxDeg)
	g.ncnt = make([]uint8, u)
	// pickUltra draws a pseudo-random ultra, preferring a same-AS one
	// within awareProbe extra draws when Aware is set.
	pickUltra := func(key uint64, as int) int {
		pick := int(megascale.Mix64(key) % uint64(u))
		if !g.cfg.Aware {
			return pick
		}
		for t := 0; t < awareProbe; t++ {
			c := int(megascale.Mix64(key^uint64(t+1)*0x9e3779b97f4a7c15) % uint64(u))
			if pt.AS(underlay.PeerID(g.ultra[c])) == as {
				return c
			}
		}
		return pick
	}
	linked := func(a, b int) bool {
		base := a * compactMaxDeg
		for i := 0; i < int(g.ncnt[a]); i++ {
			if g.nbr[base+i] == g.ultra[b] {
				return true
			}
		}
		return false
	}
	link := func(a, b int) {
		if a == b || linked(a, b) ||
			int(g.ncnt[a]) >= compactMaxDeg || int(g.ncnt[b]) >= compactMaxDeg {
			return
		}
		g.nbr[a*compactMaxDeg+int(g.ncnt[a])] = g.ultra[b]
		g.ncnt[a]++
		g.nbr[b*compactMaxDeg+int(g.ncnt[b])] = g.ultra[a]
		g.ncnt[b]++
	}
	for i := 0; i < u; i++ {
		as := pt.AS(underlay.PeerID(g.ultra[i]))
		for d := 0; d < compactUltraDegree; d++ {
			// The paper's k-external rule: even aware nodes keep their
			// first link unbiased so the graph stays connected across
			// ASes.
			if g.cfg.Aware && d == 0 {
				link(i, int(megascale.Mix64(seed^0x11b8^uint64(i)<<20)%uint64(u)))
				continue
			}
			link(i, pickUltra(seed^0x0b61^uint64(i)<<20^uint64(d), as))
		}
	}
	// Leaves attach to compactLeafParents distinct ultras; QRP reads the
	// parent rows (attachedTo).
	g.par = make([]uint32, n*compactLeafParents)
	g.pcnt = make([]uint8, n)
	for p := 0; p < n; p++ {
		if g.uidx[p] >= 0 {
			continue
		}
		as := pt.AS(underlay.PeerID(p))
		base := p * compactLeafParents
		for s := 0; s < compactLeafParents; s++ {
			c := pickUltra(seed^0x1eaf^uint64(p)<<8^uint64(s), as)
			dup := false
			for i := 0; i < int(g.pcnt[p]); i++ {
				if g.par[base+i] == g.ultra[c] {
					dup = true
					break
				}
			}
			if dup {
				continue
			}
			g.par[base+int(g.pcnt[p])] = g.ultra[c]
			g.pcnt[p]++
		}
	}
}

// owners derives the replicas peers sharing the key drawn from a query
// seed — the deterministic replica placement both the flood's QRP check
// and the ground truth read.
func (g *CompactFlood) owners(key uint64, out []underlay.PeerID) []underlay.PeerID {
	n := uint64(len(g.uidx))
	out = out[:0]
	for r := 0; r < replicas; r++ {
		out = append(out, underlay.PeerID(megascale.Mix64(key^uint64(r+1)*0xbf58476d1ce4e5b9)%n))
	}
	return out
}

// attachedTo reports whether owner o is peer u itself or a leaf attached
// to ultrapeer u (a static read of the parent rows).
func (g *CompactFlood) attachedTo(o, u underlay.PeerID) bool {
	if o == u {
		return true
	}
	if g.uidx[u] < 0 || g.uidx[o] >= 0 {
		return false
	}
	base := int(o) * compactLeafParents
	for i := 0; i < int(g.pcnt[o]); i++ {
		if g.par[base+i] == uint32(u) {
			return true
		}
	}
	return false
}

// peerSet is an open-addressed set of peer ids, sized for the few
// hundred peers one TTL-bounded flood reaches. A slot holds id+1 so the
// zero value is an empty set; ids up to math.MaxUint32-1 fit.
type peerSet struct {
	slots []uint32 // power-of-two length, linear probing, 0 = empty
	n     int
}

// add inserts p and reports whether it was absent.
func (s *peerSet) add(p underlay.PeerID) bool {
	if s.slots == nil {
		s.slots = make([]uint32, 16)
	}
	if !s.insert(uint32(p) + 1) {
		return false
	}
	if 2*s.n > len(s.slots) {
		s.grow()
	}
	return true
}

// insert probes linearly from key's slot, the top log2(len) bits of a
// multiplicative hash; the table is never more than half full, so an
// empty slot ends every probe.
func (s *peerSet) insert(key uint32) bool {
	mask := uint32(len(s.slots) - 1)
	for i := key * 0x9e3779b1 >> bits.LeadingZeros32(mask); ; i = (i + 1) & mask {
		switch s.slots[i] {
		case 0:
			s.slots[i] = key
			s.n++
			return true
		case key:
			return false
		}
	}
}

// grow doubles the table and reinserts.
func (s *peerSet) grow() {
	old := s.slots
	s.slots, s.n = make([]uint32, 2*len(old)), 0
	for _, key := range old {
		if key != 0 {
			s.insert(key)
		}
	}
}

// floodQuery is one in-flight query's state. g, origin and owners are
// fixed at Query and read from any shard, so a message carries only the
// query, its next peer and the narrowed ttl and hop count. hits,
// firstHop and best belong to the origin's shard (oshard), and so does
// the deadline, which calls onDone; seen[i] is the set of peers on shard
// i the query has reached and is touched by shard i alone (the barrier
// orders Query's set-up before any other shard's first use).
//
// A query is recycled. refs counts what may still touch it: the
// deadline, and each message from its send until its handler has run. A
// handler settles in one step, after it has run: it takes a reference
// for each message it sent and drops its own, so a handler that sent one
// message leaves refs as it was. A message may land after the deadline,
// on any shard, so refs is the one field every shard writes, and it is
// atomic, on a cache line of its own: the fields above it are read on
// every message. Whoever drops the last reference clears the seen sets,
// which keep the size they grew to, and puts the query on its own
// shard's free list; the atomic decrement orders every shard's last
// touch of the sets before the clear.
type floodQuery struct {
	g        *CompactFlood
	next     *floodQuery // free-list link
	onDone   func(megascale.Result)
	deadline func() // finish, bound once when the query is allocated
	oshard   int32
	origin   underlay.PeerID
	owners   [replicas]underlay.PeerID
	hits     int
	firstHop int
	best     underlay.PeerID
	seen     []peerSet
	_        [64]byte
	refs     atomic.Int32
	_        [60]byte
}

// seenSlots is the per-shard dedup table size Query presizes for K
// shards: 1024 slots over K rounded up to a power of two, never below
// 16. It is the size the tables settle at: one flood reaches a few
// hundred peers, and half as many slots left three in four tables of a
// 250 000-peer mega-flood run to grow once.
func seenSlots(K int) int {
	return max(16, 1024>>bits.Len(uint(K-1)))
}

// Query implements megascale.CompactOverlay: one keyword query for a
// key derived from the per-request seed, flooded TTL-bounded from the
// origin's ultrapeers. Must be invoked on origin's owning shard; onDone
// (which may be nil) runs there at the query deadline. Result.OK
// reports a hit; Result.Hops is the first hit's hop count.
func (g *CompactFlood) Query(origin underlay.PeerID, seed uint64, onDone func(megascale.Result)) {
	key := megascale.Mix64(seed ^ 0x6e7e11a)
	oshard := g.net.ShardOf(origin)
	g.ctr.Start(oshard)
	l := g.spare[oshard]
	st := l.queries
	if st != nil {
		l.queries, st.next = st.next, nil
	} else {
		st = g.newQuery()
	}
	st.origin, st.oshard, st.onDone = origin, int32(oshard), onDone
	st.hits, st.firstHop, st.best = 0, 0, origin
	g.owners(key, st.owners[:0])
	l.sent = 0
	ttl := int16(g.cfg.QueryTTL)
	if g.uidx[origin] >= 0 {
		// Ultra origin processes the query locally, no self-message.
		st.deliver(origin, oshard, ttl, 0)
	} else {
		base := int(origin) * compactLeafParents
		for i := 0; i < int(g.pcnt[origin]); i++ {
			up := underlay.PeerID(g.par[base+i])
			st.send(origin, oshard, up, msgDeliver, ttl, 1)
		}
	}
	// The deadline's reference and one per message sent; none of those
	// messages runs before Query returns.
	st.refs.Store(1 + l.sent)
	g.net.Kernel().Shard(oshard).Schedule(queryTimeout, st.deadline)
}

// newQuery allocates a query with its K dedup sets presized from one
// backing array.
func (g *CompactFlood) newQuery() *floodQuery {
	shards := len(g.spare)
	size := seenSlots(shards)
	st := &floodQuery{g: g, seen: make([]peerSet, shards)}
	slots := make([]uint32, shards*size)
	for i := range st.seen {
		st.seen[i].slots = slots[i*size : (i+1)*size]
	}
	st.deadline = st.finish
	return st
}

// finish scores the query at its deadline, on the origin's shard, and
// drops the deadline's reference.
func (st *floodQuery) finish() {
	g, oshard := st.g, int(st.oshard)
	ok := st.hits > 0
	g.ctr.Finish(oshard, ok, st.firstHop)
	if g.potentialHit(st.origin, &st.owners, &g.scratch[oshard]) {
		g.potential[oshard]++
	}
	if st.onDone != nil {
		st.onDone(megascale.Result{Origin: st.origin, Best: st.best, OK: ok, Hops: st.firstHop})
	}
	st.settle(oshard, -1)
}

// settle moves the reference count by delta on shard shard. A zero delta
// is a handler that sent one message: its own reference held the count
// above zero, and the new message's holds it now. The count reaching
// zero clears the dedup sets and frees the query onto that shard's list.
func (st *floodQuery) settle(shard int, delta int32) {
	if delta == 0 || st.refs.Add(delta) != 0 {
		return
	}
	for i := range st.seen {
		clear(st.seen[i].slots)
		st.seen[i].n = 0
	}
	st.onDone = nil
	l := st.g.spare[shard]
	st.next, l.queries = l.queries, st
}

// msgKind is what a floodMsg carries.
type msgKind uint8

const (
	msgDeliver msgKind = iota // the query, to ultrapeer peer
	msgLeaf                   // the QRP last hop, to owning leaf peer
	msgHit                    // a QueryHit from peer, to the origin
)

// floodMsg is one message in flight: the query it belongs to, the peer it
// names, and the narrowed ttl and hop count. run is the record's handle
// method, bound once when the record is allocated, so a send allocates
// nothing.
//
// A record belongs to the shard that allocated it, its home, and only
// its home takes it from a free list. The shard that consumes a message
// frees the record if it is home, and otherwise chains it to wait for a
// ride: the next message that shard sends to the home shard carries the
// chain in next, and the home shard frees it on arrival. So each free
// list is touched by its own shard alone, every hand-over rides a
// message through the kernel, and a shard's records are bounded by its
// messages in flight or waiting for a ride, however one-sided the
// traffic between two shards is.
type floodMsg struct {
	st    *floodQuery
	next  *floodMsg // free-list link; in flight, the records it carries home
	run   func()
	peer  underlay.PeerID
	ttl   int16
	hops  uint16
	kind  msgKind
	home  int32 // the shard that allocated the record
	shard int32 // the shard that consumes the message
}

// msgList is one shard's recycled state: its message records at home,
// free, those of other shards, waiting for a message to their home, and
// the queries whose last reference it dropped.
type msgList struct {
	free    *floodMsg
	away    []*floodMsg // away[h] chains records of home h
	queries *floodQuery
	// sent counts the messages the running handler, or Query, has sent,
	// whose references it takes in one step.
	sent int32
}

// send carries a message of the given kind from peer from, on shard
// shard, to peer to, along with the records waiting for a ride to to's
// shard.
func (st *floodQuery) send(from underlay.PeerID, shard int, to underlay.PeerID, kind msgKind, ttl int16, hops uint16) {
	g := st.g
	l := g.spare[shard]
	m := l.free
	if m != nil {
		l.free = m.next
	} else {
		m = &floodMsg{home: int32(shard)}
		m.run = m.handle
	}
	dst := g.net.ShardOf(to)
	m.next, l.away[dst] = l.away[dst], nil
	m.st, m.peer, m.ttl, m.hops, m.kind, m.shard = st, to, ttl, hops, kind, int32(dst)
	class, bytes := g.qryClass, uint64(queryBytes)
	if kind == msgHit {
		m.peer, class, bytes = from, g.hitClass, queryHitBytes
	}
	l.sent++
	g.net.Send(from, to, class, bytes, m.run)
}

// handle runs a message on the shard that consumes it: the records it
// carried home go on the free list, the record itself is freed or set
// aside for its ride home, the message is processed, and then it settles
// the query's reference count for its own message and those it sent.
func (m *floodMsg) handle() {
	st, peer, ttl, hops, kind, shard := m.st, m.peer, m.ttl, m.hops, m.kind, int(m.shard)
	l := st.g.spare[shard]
	for c := m.next; c != nil; {
		next := c.next
		c.next, l.free = l.free, c
		c = next
	}
	m.st, l.sent = nil, 0
	if int(m.home) == shard {
		m.next, l.free = l.free, m
	} else {
		m.next, l.away[m.home] = l.away[m.home], m
	}
	switch kind {
	case msgDeliver:
		st.deliver(peer, shard, ttl, hops)
	case msgLeaf:
		st.leaf(peer, shard, hops)
	case msgHit:
		if st.hits == 0 {
			st.firstHop = int(hops)
			st.best = peer
		}
		st.hits++
	}
	st.settle(shard, l.sent-1)
}

// deliver processes the query at ultrapeer u, on u's shard: liveness
// gate, dedup against the query's set for this shard, QRP hit check
// against u and its leaves, then a TTL-bounded forward to u's neighbors.
// ttl fits int16 (NewCompactFlood bounds QueryTTL) and hops, at most
// QueryTTL+1, fits uint16.
func (st *floodQuery) deliver(u underlay.PeerID, shard int, ttl int16, hops uint16) {
	g := st.g
	if !g.net.Peers().Up(u) || !st.seen[shard].add(u) {
		return
	}
	for _, o := range st.owners {
		if !g.attachedTo(o, u) {
			continue
		}
		if o == u {
			st.reply(u, hops)
			continue
		}
		// QRP last hop: only the owning leaf gets the query; it answers
		// the origin directly if alive.
		st.send(u, shard, o, msgLeaf, 0, hops+1)
	}
	if ttl <= 1 {
		return
	}
	ui := int(g.uidx[u])
	base := ui * compactMaxDeg
	for i := 0; i < int(g.ncnt[ui]); i++ {
		st.send(u, shard, underlay.PeerID(g.nbr[base+i]), msgDeliver, ttl-1, hops+1)
	}
}

// leaf processes the QRP last hop at owning leaf o, on o's shard.
func (st *floodQuery) leaf(o underlay.PeerID, shard int, hops uint16) {
	if !st.g.net.Peers().Up(o) || !st.seen[shard].add(o) {
		return
	}
	st.reply(o, hops)
}

// reply sends a QueryHit from peer h, on h's shard, back to the origin.
func (st *floodQuery) reply(h underlay.PeerID, hops uint16) {
	st.send(h, st.g.net.ShardOf(h), st.origin, msgHit, 0, hops)
}

// bfsScratch is the reusable state of one ground-truth BFS.
type bfsScratch struct {
	frontier []bfsEntry
	visited  peerSet
}

type bfsEntry struct {
	u   underlay.PeerID
	ttl int
}

// PotentialHit is the ground-truth checker: whether any replica of the
// key is reachable from origin within QueryTTL over the static
// ultrapeer graph, ignoring liveness (stale QRP tables answer for dead
// peers in deployed Gnutella too). An actual hit implies a potential
// hit; the gap between the two rates is exactly the churn's toll on the
// flood. Pure read of immutable topology — safe from any shard.
func (g *CompactFlood) PotentialHit(origin underlay.PeerID, key uint64) bool {
	var owners [replicas]underlay.PeerID
	g.owners(key, owners[:0])
	return g.potentialHit(origin, &owners, &bfsScratch{})
}

// potentialHit is PotentialHit for precomputed owners, breadth-first
// over s: the frontier is walked by index and both it and the visited
// set are cleared, not reallocated, so a warmed s allocates nothing.
func (g *CompactFlood) potentialHit(origin underlay.PeerID, owners *[replicas]underlay.PeerID, s *bfsScratch) bool {
	visited := &s.visited
	clear(visited.slots)
	visited.n = 0
	s.frontier = s.frontier[:0]
	if g.uidx[origin] >= 0 {
		s.frontier = append(s.frontier, bfsEntry{origin, g.cfg.QueryTTL})
		visited.add(origin)
	} else {
		base := int(origin) * compactLeafParents
		for i := 0; i < int(g.pcnt[origin]); i++ {
			up := underlay.PeerID(g.par[base+i])
			if visited.add(up) {
				s.frontier = append(s.frontier, bfsEntry{up, g.cfg.QueryTTL})
			}
		}
	}
	for head := 0; head < len(s.frontier); head++ {
		e := s.frontier[head]
		for _, o := range owners {
			if g.attachedTo(o, e.u) {
				return true
			}
		}
		if e.ttl <= 1 {
			continue
		}
		ui := int(g.uidx[e.u])
		base := ui * compactMaxDeg
		for i := 0; i < int(g.ncnt[ui]); i++ {
			v := underlay.PeerID(g.nbr[base+i])
			if visited.add(v) {
				s.frontier = append(s.frontier, bfsEntry{v, e.ttl - 1})
			}
		}
	}
	return false
}

// Potential reports how many scored queries were statically reachable.
// Barrier-safe.
func (g *CompactFlood) Potential() uint64 {
	var n uint64
	for _, p := range g.potential {
		n += p
	}
	return n
}

// MegaStats implements megascale.CompactOverlay.
func (g *CompactFlood) MegaStats() megascale.Stats { return g.ctr.Stats() }

// HealthStats exposes query health plus the ground-truth coverage — the
// fraction of statically-reachable keys the churned flood actually hit.
func (g *CompactFlood) HealthStats() map[string]float64 {
	h := g.ctr.Health()
	s := g.ctr.Stats()
	pot := g.Potential()
	h["potential_rate"] = 0
	h["coverage"] = 0
	if s.Done > 0 {
		h["potential_rate"] = float64(pot) / float64(s.Done)
	}
	if pot > 0 {
		h["coverage"] = float64(s.OK) / float64(pot)
	}
	return h
}
