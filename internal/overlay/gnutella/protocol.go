package gnutella

import (
	"unap2p/internal/sim"
	"unap2p/internal/underlay"
	"unap2p/internal/workload"
)

// Ping floods a discovery ping from node id with the configured TTL.
// Every node reached replies with a Pong routed hop-by-hop back along the
// reverse path — the Gnutella 0.4 semantics whose Pong traffic dwarfs Ping
// traffic (75.5M Pongs vs 7.6M Pings in Aggarwal et al.'s Table 1).
func (o *Overlay) Ping(from underlay.HostID) {
	n := o.nodes[from]
	if n == nil || !n.Host.Up {
		return
	}
	if o.Cfg.PongCache {
		o.cachedPing(n)
		return
	}
	guid := o.nextGUID()
	n.seen[guid] = from // origin marks itself
	for _, nb := range n.neighbors {
		o.forward(kindPing, guid, 0, from, nb, o.Cfg.PingTTL)
	}
}

// cachedPing implements Gnutella 0.6 pong caching: one Ping per neighbor,
// each answered directly with up to pongCacheSize pongs drawn from the
// neighbor's own contact cache (its neighbors plus learned hosts). The
// pinging node learns the returned addresses into its Hostcache — same
// discovery result, a fraction of the 0.4 flooding traffic.
func (o *Overlay) cachedPing(n *Node) {
	for _, nb := range n.neighbors {
		recv := o.nodes[nb]
		if recv == nil || !recv.Host.Up {
			continue
		}
		r := o.T.Send(n.Host, recv.Host, pingBytes, "ping")
		if !r.OK {
			continue // ping lost: this neighbor never answers
		}
		o.post(r.Latency, kindCachePing, 0, n.Host.ID, nb, 0, 0)
	}
}

// answerCachedPing is recv's answer to n's one-hop Ping: pongs drawn
// from its neighbors, then its Hostcache, each teaching n one address.
func (o *Overlay) answerCachedPing(n, recv *Node) {
	sent := 0
	reply := func(id underlay.HostID) {
		if sent >= pongCacheSize || id == n.Host.ID {
			return
		}
		back := o.T.Send(recv.Host, n.Host, pongBytes, "pong")
		sent++ // the cache slot is spent even if the pong is lost
		if back.OK {
			o.post(back.Latency, kindCachePong, 0, id, n.Host.ID, 0, 0)
		}
	}
	for _, id := range recv.neighbors {
		if sent >= pongCacheSize {
			break
		}
		reply(id)
	}
	for _, id := range recv.hostcache {
		if sent >= pongCacheSize {
			break
		}
		if !recv.neighbors.has(id) {
			reply(id)
		}
	}
}

// learn adds an address to a node's Hostcache (deduplicated, capped).
func (o *Overlay) learn(n *Node, id underlay.HostID) {
	if id == n.Host.ID {
		return
	}
	for _, have := range n.hostcache {
		if have == id {
			return
		}
	}
	if o.Cfg.HostcacheSize > 0 && len(n.hostcache) >= o.Cfg.HostcacheSize {
		return
	}
	n.hostcache = append(n.hostcache, id)
}

// forward relays a flooded Ping or Query (kind) from node from to its
// neighbor to, which receives it after the underlay latency.
func (o *Overlay) forward(kind messageKind, guid uint64, item workload.ItemID, from, to underlay.HostID, ttl int) {
	if ttl <= 0 {
		return
	}
	sender, recv := o.nodes[from], o.nodes[to]
	if sender == nil || recv == nil || !recv.Host.Up {
		return
	}
	w := wire[kind]
	r := o.T.Send(sender.Host, recv.Host, w.bytes, w.typ)
	if !r.OK {
		return // a lost flood message prunes this branch of the flood
	}
	o.post(r.Latency, kind, guid, from, to, item, ttl)
}

// recv is a flooded Ping or Query (kind) from reaching to. A first
// sighting answers — a Ping with a Pong along the reverse path, a Query
// from to's files and its leaves' — and relays to the other neighbors.
func (o *Overlay) recv(kind messageKind, guid uint64, item workload.ItemID, from, to underlay.HostID, ttl int) {
	recv := o.nodes[to]
	if _, dup := recv.seen[guid]; dup {
		return
	}
	recv.seen[guid] = from
	if kind == kindPing {
		o.back(kindPong, guid, to, 0)
	} else {
		o.answerLocal(guid, recv, item)
	}
	for _, nb := range recv.neighbors {
		if nb != from {
			o.forward(kind, guid, item, to, nb, ttl-1)
		}
	}
}

// back moves a Pong or a QueryHit naming holder (kind) one overlay hop
// from node at toward the GUID's origin along the reverse path, counting
// a message per hop. A QueryHit that is at the origin lands in the
// pending result; a Pong there is done.
func (o *Overlay) back(kind messageKind, guid uint64, at, holder underlay.HostID) {
	n := o.nodes[at]
	if n == nil {
		return
	}
	prev, ok := n.seen[guid]
	if !ok {
		return // unknown GUID
	}
	if prev == at {
		if kind == kindHit {
			if res := o.pendingHits[guid]; res != nil {
				res.Hits = append(res.Hits, holder)
			}
		}
		return
	}
	next := o.nodes[prev]
	if next == nil || !next.Host.Up {
		return
	}
	w := wire[kind]
	r := o.T.Send(n.Host, next.Host, w.bytes, w.typ)
	if !r.OK {
		return // response lost mid-route: the origin never hears it
	}
	o.post(r.Latency, kind, guid, holder, prev, 0, 0)
}

// SearchResult accumulates the hits of one query.
type SearchResult struct {
	From underlay.HostID
	Item workload.ItemID
	// Hits are the hosts that reported having the item (in arrival
	// order; deterministic given the kernel).
	Hits []underlay.HostID
	// Done is set when the flood has quiesced (kernel drained).
	Done bool

	guid uint64
}

// Search floods a query for item from the given node. Hits accumulate in
// the returned result as the kernel processes the flood; run the kernel
// (or RunSearch) to completion before reading Hits.
//
// Leaves do not flood: they hand the query to their ultrapeers, which
// answer for their own leaves' shared files (the ultrapeer indexes its
// leaves, Gnutella 0.6-style).
func (o *Overlay) Search(from underlay.HostID, item workload.ItemID) *SearchResult {
	if workload.ItemID(int32(item)) != item {
		panic("gnutella: item id beyond a message's 32 bits")
	}
	res := &SearchResult{From: from, Item: item}
	n := o.nodes[from]
	if n == nil || !n.Host.Up {
		res.Done = true
		return res
	}
	guid := o.nextGUID()
	res.guid = guid
	n.seen[guid] = from
	o.pendingHits[guid] = res

	if n.Ultra {
		o.answerLocal(guid, n, item)
		for _, nb := range n.neighbors {
			o.forward(kindQuery, guid, item, from, nb, o.Cfg.QueryTTL)
		}
		return res
	}
	for _, p := range n.parents {
		o.forward(kindQuery, guid, item, from, p, o.Cfg.QueryTTL)
	}
	return res
}

// answerLocal reports hits among the ultrapeer's own shared files and its
// leaves' files; hits route back toward the query's origin (the routing
// recognizes when the answering node *is* the origin and delivers
// directly without messages).
func (o *Overlay) answerLocal(guid uint64, up *Node, item workload.ItemID) {
	if o.Catalog.Has(up.Host.ID, item) {
		o.back(kindHit, guid, up.Host.ID, up.Host.ID)
	}
	for _, leaf := range up.leaves {
		if o.nodes[leaf].Host.Up && o.Catalog.Has(leaf, item) {
			o.back(kindHit, guid, up.Host.ID, leaf)
		}
	}
}

// RunSearch floods the query and runs the kernel until the flood settles,
// returning the completed result — the synchronous convenience the
// experiments use. With no other event sources it drains the kernel; when
// recurring activity (churn, mobility, meters) shares the kernel, set
// SettleTime on the overlay and RunSearch advances simulated time by that
// bound instead.
func (o *Overlay) RunSearch(from underlay.HostID, item workload.ItemID) *SearchResult {
	res := o.Search(from, item)
	if o.SettleTime > 0 {
		o.K.Run(o.K.Now() + o.SettleTime)
	} else {
		o.K.Drain()
	}
	res.Done = true
	delete(o.pendingHits, res.guid)
	return res
}

// Download picks a source among the result's hits — selector-preferred
// when the selector answers SelectSource (the biased file-exchange
// stage), uniformly at random otherwise — and transfers the file. It
// reports whether a transfer happened and whether it stayed inside one
// AS.
func (o *Overlay) Download(res *SearchResult) (ok, intraAS bool) {
	// Exclude ourselves as a source.
	var hits []underlay.HostID
	for _, h := range res.Hits {
		if h != res.From && o.U.Host(h).Up {
			hits = append(hits, h)
		}
	}
	if len(hits) == 0 {
		return false, false
	}
	requester := o.U.Host(res.From)
	var src underlay.HostID
	picked := false
	if o.Sel != nil {
		src, picked = o.Sel.SelectSource(requester, hits)
	}
	if !picked {
		src = hits[o.r.Intn(len(hits))]
	}
	source := o.U.Host(src)
	if r := o.T.Send(source, requester, fileSize, "file"); !r.OK {
		return false, false // transfer lost: no download recorded
	}
	o.Downloads++
	intra := source.AS.ID == requester.AS.ID
	if intra {
		o.IntraASDownloads++
	}
	return true, intra
}

// IntraASDownloadFraction returns the share of downloads that stayed
// within one AS — the headline locality number.
func (o *Overlay) IntraASDownloadFraction() float64 {
	if o.Downloads == 0 {
		return 0
	}
	return float64(o.IntraASDownloads) / float64(o.Downloads)
}

// messageKind is what a message record carries.
type messageKind uint8

const (
	kindPing      messageKind = iota // a flooded Ping, relayed by from to to
	kindQuery                        // a flooded Query for item, relayed by from to to
	kindPong                         // a Pong, one reverse-path hop on at to
	kindHit                          // a QueryHit naming holder from, one hop on at to
	kindCachePing                    // a pong-cache Ping, sent by from to to
	kindCachePong                    // a cached Pong, teaching to the address from
)

// wire gives each flood and reverse-path kind its transport message type
// and size.
var wire = [...]struct {
	typ   string
	bytes uint64
}{
	kindPing:  {"ping", pingBytes},
	kindQuery: {"query", queryBytes},
	kindPong:  {"pong", pongBytes},
	kindHit:   {"queryhit", queryHitBytes},
}

// message is one classic message in flight. run is the record's handle
// method, bound once when the record is allocated, so a send allocates
// nothing: records come from the overlay's free list, and handle returns
// each to it before the delivery runs. The overlay drives one kernel, so
// one list needs no ownership rule.
//
// The record stays at 48 B, the size class of the closure it replaced.
// A closure was garbage once it ran, but the free list keeps as many
// records as were ever in flight at once (103 k at paper-unstructured's
// peak), and a 112 B record (the receiving *Node and the route kind as a
// string) raised that run's peak RSS by 18 %. So ids and the ttl are
// narrowed, the receiver is re-read as o.nodes[to] (nodes are never
// removed or replaced), and the kind implies the message type and size.
type message struct {
	o        *Overlay
	next     *message // free-list link
	run      func()
	guid     uint64
	from, to int32
	item     int32
	ttl      int16
	kind     messageKind
}

// post schedules a message of the given kind for delivery after lat.
func (o *Overlay) post(lat sim.Duration, kind messageKind, guid uint64, from, to underlay.HostID, item workload.ItemID, ttl int) {
	m := o.free
	if m != nil {
		o.free = m.next
	} else {
		m = &message{o: o}
		m.run = m.handle
	}
	m.guid, m.from, m.to, m.item, m.ttl, m.kind = guid, int32(from), int32(to), int32(item), int16(ttl), kind
	o.K.Schedule(lat, m.run)
}

// handle delivers a message: it copies the fields out, frees the record
// and then runs the delivery, which may reuse the record at once.
func (m *message) handle() {
	o, guid, ttl, kind := m.o, m.guid, int(m.ttl), m.kind
	from, to, item := underlay.HostID(m.from), underlay.HostID(m.to), workload.ItemID(m.item)
	m.next, o.free = o.free, m
	switch kind {
	case kindPing, kindQuery:
		o.recv(kind, guid, item, from, to, ttl)
	case kindPong, kindHit:
		o.back(kind, guid, to, from)
	case kindCachePing:
		o.answerCachedPing(o.nodes[from], o.nodes[to])
	case kindCachePong:
		o.learn(o.nodes[to], from)
	}
}
