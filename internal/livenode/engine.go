package livenode

import (
	"encoding/binary"
	"sync"
	"sync/atomic"
	"time"

	"unap2p/internal/lookup"
	"unap2p/internal/megascale"
	"unap2p/internal/metrics"
	"unap2p/internal/nettransport"
	"unap2p/internal/resilience"
	"unap2p/internal/underlay"
)

// Engine is one overlay protocol running live on a node: it installs its
// RPC handlers on the node's Net, answers queries from its own local
// view only, and repairs that view when the failure detector declares a
// peer dead (the resilience.Healer half, which every engine inherits
// from the Core it embeds).
type Engine interface {
	resilience.Healer
	// Lookup resolves target through the overlay's own protocol — real
	// RPC hops, no global view — and reports the resolved member plus
	// whether it matches the ground truth computable from the node's
	// current membership (see NodeKey). A false verdict means the overlay
	// routed wrong or lost the race with membership change, not that the
	// call crashed.
	Lookup(target uint64) (underlay.HostID, bool)
}

// NewEngine builds the named engine on core. Unknown names return nil.
func NewEngine(name string, core *Core) Engine {
	switch name {
	case "kademlia":
		return newKademlia(core)
	case "chord":
		return newChord(core)
	case "gnutella":
		return newGnutella(core)
	}
	return nil
}

// Core is the node-local state every engine shares: the socket, whose
// address book is the membership view, and the overlay counters. The
// book holds the node's one membership record: an evicted peer is gone
// from it and refused by every later write, so every read of it — a
// lookup's start set, a handler's answer, a reply contact — is already
// filtered and the engines keep no ledger of their own.
type Core struct {
	Net  *nettransport.Net
	Self underlay.HostID
	Msgs *metrics.CounterSet
}

// NewCore wraps a Net for engine use.
func NewCore(n *nettransport.Net) *Core {
	return &Core{Net: n, Self: n.Self(), Msgs: metrics.NewCounterSet()}
}

// memberHint sizes the stack arrays that the routing paths collect the
// membership view into; a larger view spills to the heap through append.
const memberHint = 64

// learn records a reply contact's address and reports whether the book
// holds the contact afterwards, which it does unless the id is evicted.
func (c *Core) learn(p nettransport.PeerEntry) bool {
	c.Net.Book().Set(p.ID, p.Addr)
	_, ok := c.Net.Book().Get(p.ID)
	return ok
}

// Suspect implements the advisory half of resilience.Healer: the verdict
// is counted, and the peer keeps answering routing queries — suspicion
// can be recanted.
func (c *Core) Suspect(underlay.HostID) { c.Msgs.Get("heal_suspect").Inc() }

// Recover counts a recanted suspicion (wired to Detector.OnRecover).
func (c *Core) Recover(underlay.HostID) { c.Msgs.Get("heal_recover").Inc() }

// Evict implements the terminal half of resilience.Healer: the peer
// leaves the address book, and with it the membership view, for good.
func (c *Core) Evict(id underlay.HostID) {
	if c.Net.Book().Remove(id) {
		c.Msgs.Get("heal_evict").Inc()
	}
}

func u64(p []byte) (uint64, bool) {
	if len(p) < 8 {
		return 0, false
	}
	return binary.BigEndian.Uint64(p), true
}

// --- Kademlia ---

const (
	kadK         = 8  // closest-set width returned per find_node
	kadMaxProbes = 16 // iterative-lookup query budget
)

// kademlia is the live Kademlia engine: iterative find_node lookups over
// the XOR metric. A queried node answers with a mini address book of the
// k closest members it knows, so the querier learns addresses as the
// lookup converges — the live analogue of learning contacts from
// FIND_NODE replies.
type kademlia struct {
	*Core
	reply []byte // the find_node reply, reused: handlers run one at a time
}

func newKademlia(c *Core) *kademlia {
	e := &kademlia{Core: c}
	c.Net.Handle("kad:find_node", func(from underlay.HostID, payload []byte) []byte {
		target, ok := u64(payload)
		if !ok {
			return nil
		}
		e.Msgs.Get("kad_served").Inc()
		var view [memberHint]underlay.HostID
		var closest [kadK]underlay.HostID
		ids := ClosestXor(closest[:0], e.Net.Book().AppendIDs(view[:0]), target, kadK)
		e.reply = e.Net.Book().AppendEncodedIDs(e.reply[:0], ids)
		return e.reply
	})
	return e
}

// replyHint sizes the stack buffers a lookup receives replies into: a
// kadK-entry mini-book of IPv4 addresses takes under 200 bytes.
const replyHint = 512

func (e *kademlia) Lookup(target uint64) (underlay.HostID, bool) {
	e.Msgs.Get("kad_lookup").Inc()
	var view [memberHint]underlay.HostID
	members := e.Net.Book().AppendIDs(view[:0])
	if len(members) == 0 {
		return 0, false
	}
	var one [1]underlay.HostID
	want := ClosestXor(one[:0], members, target, 1)[0]

	var key [8]byte
	binary.BigEndian.PutUint64(key[:], target)
	var resp [replyHint]byte
	var peers [kadK]nettransport.PeerEntry
	// The sequential driver over the shared lookup.Shortlist: always query
	// the closest not-yet-queried candidate (passing over one the book no
	// longer holds, evicted since it was offered), merging every reply
	// contact the book holds into the shortlist, until the kadK closest
	// known have all been queried or the probe budget (what bounds a
	// lookup over partial views) runs out. Self is never queried: it
	// enters the shortlist already marked.
	var buf [kadK]lookup.Entry[underlay.HostID]
	short := lookup.New(buf[:], kadK)
	offer := func(id underlay.HostID) { short.Offer(id, NodeKey(id)^target, id == e.Self) }
	for _, id := range members {
		offer(id)
	}
	for probes := 0; probes < kadMaxProbes; {
		next, ok := short.Next()
		if !ok {
			break
		}
		if _, held := e.Net.Book().Get(next); !held {
			continue
		}
		probes++
		reply, err := e.Net.CallAppend(resp[:0], next, "kad:find_node", key[:])
		if err != nil {
			e.Msgs.Get("kad_rpc_fail").Inc()
			continue
		}
		contacts, err := nettransport.AppendPeers(peers[:0], reply)
		if err != nil {
			e.Msgs.Get("kad_bad_resp").Inc()
			continue
		}
		for _, p := range contacts {
			if e.learn(p) {
				offer(p.ID)
			}
		}
	}
	got := short.Entries()[0].ID
	if got == want {
		e.Msgs.Get("kad_lookup_ok").Inc()
		return got, true
	}
	e.Msgs.Get("kad_lookup_fail").Inc()
	return got, false
}

// --- Chord ---

const chordMaxHops = 32

// chord is the live Chord engine: a find-successor walk on the NodeKey
// ring. Each hop asks one node, which answers either "done, the
// successor is X" (target in its successor arc) or "ask Y next" (its
// closest preceding member). Reply entries travel as mini address books
// so the querier can reach the next hop.
type chord struct {
	*Core
	reply []byte // the find_succ reply, reused: handlers run one at a time
}

func newChord(c *Core) *chord {
	e := &chord{Core: c}
	c.Net.Handle("chord:find_succ", func(from underlay.HostID, payload []byte) []byte {
		target, ok := u64(payload)
		if !ok {
			return nil
		}
		e.Msgs.Get("chord_served").Inc()
		done, hop := e.step(target)
		flag := byte(0)
		if done {
			flag = 1
		}
		ids := [1]underlay.HostID{hop}
		e.reply = e.Net.Book().AppendEncodedIDs(append(e.reply[:0], flag), ids[:])
		return e.reply
	})
	return e
}

// step is one routing decision from this node's own view: done=true
// means hop owns target; done=false means hop is the next node to ask.
func (e *chord) step(target uint64) (done bool, hop underlay.HostID) {
	var view [memberHint]underlay.HostID
	others := removeID(e.Net.Book().AppendIDs(view[:0]), e.Self)
	me := NodeKey(e.Self)
	// Successor of self on the ring (smallest key strictly after me,
	// wrapping); alone in the ring, self owns everything.
	succ, okSucc := RingSuccessor(others, me+1)
	if !okSucc {
		return true, e.Self
	}
	if lookup.InArc(target, me, NodeKey(succ)) {
		return true, succ
	}
	// Closest preceding member in (me, target): the standard Chord hop,
	// computed over the membership view in place of a finger table.
	best, okBest := underlay.HostID(-1), false
	for _, id := range others {
		k := NodeKey(id)
		if !lookup.InArc(k, me, target) {
			continue
		}
		if !okBest || megascale.CWDist(k, target) < megascale.CWDist(NodeKey(best), target) {
			best, okBest = id, true
		}
	}
	if !okBest {
		return true, succ
	}
	return false, best
}

// removeID drops every drop from ids, in place.
func removeID(ids []underlay.HostID, drop underlay.HostID) []underlay.HostID {
	out := ids[:0]
	for _, id := range ids {
		if id != drop {
			out = append(out, id)
		}
	}
	return out
}

func (e *chord) Lookup(target uint64) (underlay.HostID, bool) {
	e.Msgs.Get("chord_lookup").Inc()
	var view [memberHint]underlay.HostID
	want, ok := RingSuccessor(e.Net.Book().AppendIDs(view[:0]), target)
	if !ok {
		return 0, false
	}
	var key [8]byte
	binary.BigEndian.PutUint64(key[:], target)
	var resp [replyHint]byte
	var peers [1]nettransport.PeerEntry
	done, hop := e.step(target)
	for i := 0; !done && i < chordMaxHops; i++ {
		reply, err := e.Net.CallAppend(resp[:0], hop, "chord:find_succ", key[:])
		if err != nil || len(reply) < 1 {
			e.Msgs.Get("chord_rpc_fail").Inc()
			break
		}
		contacts, perr := nettransport.AppendPeers(peers[:0], reply[1:])
		if perr != nil || len(contacts) == 0 {
			e.Msgs.Get("chord_bad_resp").Inc()
			break
		}
		e.learn(contacts[0]) // an evicted hop stays out: the call to it fails, and it is nobody's answer
		done, hop = reply[0] == 1, contacts[0].ID
	}
	if done && hop == want {
		e.Msgs.Get("chord_lookup_ok").Inc()
		return hop, true
	}
	e.Msgs.Get("chord_lookup_fail").Inc()
	return hop, false
}

// --- Gnutella ---

const (
	gnuTTL     = 4
	gnuFanout  = 3
	gnuTimeout = 2 * time.Second
	// gnuSeenWindow is how many query ids one dedup generation holds. A
	// flood lives at most gnuTimeout, so remembering the last window's
	// worth (plus the generation before it) is ample.
	gnuSeenWindow = 4096
)

// seenWindow is the flood's duplicate filter: a two-generation set of
// recent query ids holding between gnuSeenWindow and 2×gnuSeenWindow of
// the latest ones, so a long-running daemon's memory stays bounded while
// any echo of a recent query is still recognized.
type seenWindow struct {
	cur, prev map[uint64]struct{}
}

// add records qid and reports whether it was already in the window.
func (w *seenWindow) add(qid uint64) (dup bool) {
	if _, ok := w.cur[qid]; ok {
		return true
	}
	if _, ok := w.prev[qid]; ok {
		return true
	}
	if w.cur == nil || len(w.cur) >= gnuSeenWindow {
		w.prev, w.cur = w.cur, make(map[uint64]struct{})
	}
	w.cur[qid] = struct{}{}
	return false
}

// gnutella is the live unstructured engine: a TTL-bounded flood. A query
// names an exact member; every receiver either answers with a direct
// gnu:hit to the origin (it is the target) or relays the query to up to
// gnuFanout other members. Duplicate query ids are dropped, which is
// what keeps the flood from echoing forever.
type gnutella struct {
	*Core
	qid atomic.Uint64

	qmu     sync.Mutex // guards seen and pending
	seen    seenWindow
	pending map[uint64]chan underlay.HostID
}

// gnu:query payload: qid(8) + target(4) + origin(4) + ttl(1).
const gnuQueryLen = 8 + 4 + 4 + 1

func newGnutella(c *Core) *gnutella {
	e := &gnutella{Core: c, pending: make(map[uint64]chan underlay.HostID)}
	e.qid.Store(NodeKey(c.Self)) // disjoint qid streams per node
	c.Net.HandleData("gnu:query", e.onQuery)
	c.Net.HandleData("gnu:hit", e.onHit)
	return e
}

func (e *gnutella) onQuery(from underlay.HostID, _ string, payload []byte) {
	if len(payload) < gnuQueryLen {
		return
	}
	qid := binary.BigEndian.Uint64(payload)
	target := underlay.HostID(int32(binary.BigEndian.Uint32(payload[8:])))
	origin := underlay.HostID(int32(binary.BigEndian.Uint32(payload[12:])))
	ttl := payload[16]
	// A conforming origin sends gnuTTL; anything above it is malformed and
	// is dropped before its qid can claim a real query's dedup slot.
	if ttl > gnuTTL {
		e.Msgs.Get("gnu_bad_ttl").Inc()
		return
	}

	e.qmu.Lock()
	dup := e.seen.add(qid)
	e.qmu.Unlock()
	if dup {
		e.Msgs.Get("gnu_dup").Inc()
		return
	}
	if target == e.Self {
		var hit [12]byte
		binary.BigEndian.PutUint64(hit[:], qid)
		binary.BigEndian.PutUint32(hit[8:], uint32(int32(e.Self)))
		e.Net.SendPayload(origin, "gnu:hit", hit[:], 0)
		e.Msgs.Get("gnu_answered").Inc()
		return
	}
	if ttl <= 1 {
		e.Msgs.Get("gnu_ttl_drop").Inc()
		return
	}
	fwd := append([]byte(nil), payload...)
	fwd[16] = ttl - 1
	e.flood(fwd, from, origin)
	e.Msgs.Get("gnu_forward").Inc()
}

// flood relays a query to up to gnuFanout members, skipping self, the
// frame's sender and the origin.
func (e *gnutella) flood(payload []byte, sender, origin underlay.HostID) {
	sent := 0
	for _, id := range e.Net.Book().IDs() {
		if id == e.Self || id == sender || id == origin {
			continue
		}
		e.Net.SendPayload(id, "gnu:query", payload, 0)
		if sent++; sent >= gnuFanout {
			break
		}
	}
}

func (e *gnutella) onHit(from underlay.HostID, _ string, payload []byte) {
	if len(payload) < 12 {
		return
	}
	qid := binary.BigEndian.Uint64(payload)
	who := underlay.HostID(int32(binary.BigEndian.Uint32(payload[8:])))
	e.qmu.Lock()
	ch := e.pending[qid]
	e.qmu.Unlock()
	if ch != nil {
		select {
		case ch <- who:
		default:
		}
	}
}

// Lookup floods a query for the member that target hashes onto and waits
// for its direct hit. Ground truth is trivial — the target either
// answers or it doesn't — which makes this the overlay whose success
// rate most directly measures flood reach (TTL × fanout vs cluster
// size).
func (e *gnutella) Lookup(target uint64) (underlay.HostID, bool) {
	e.Msgs.Get("gnu_lookup").Inc()
	members := e.Net.Book().IDs()
	if len(members) == 0 {
		return 0, false
	}
	want := members[target%uint64(len(members))]
	if want == e.Self {
		e.Msgs.Get("gnu_lookup_ok").Inc()
		return want, true
	}
	qid := e.qid.Add(1)
	ch := make(chan underlay.HostID, 1)
	e.qmu.Lock()
	e.pending[qid] = ch
	e.seen.add(qid) // don't re-relay our own query when it echoes back
	e.qmu.Unlock()
	defer func() {
		e.qmu.Lock()
		delete(e.pending, qid)
		e.qmu.Unlock()
	}()

	var q [gnuQueryLen]byte
	binary.BigEndian.PutUint64(q[:], qid)
	binary.BigEndian.PutUint32(q[8:], uint32(int32(want)))
	binary.BigEndian.PutUint32(q[12:], uint32(int32(e.Self)))
	q[16] = gnuTTL
	e.flood(q[:], e.Self, e.Self)

	timer := time.NewTimer(gnuTimeout)
	defer timer.Stop()
	select {
	case who := <-ch:
		if who == want {
			e.Msgs.Get("gnu_lookup_ok").Inc()
			return who, true
		}
		e.Msgs.Get("gnu_lookup_fail").Inc()
		return who, false
	case <-timer.C:
		e.Msgs.Get("gnu_lookup_fail").Inc()
		return -1, false
	}
}
