package kademlia

import (
	"math"
	"math/bits"

	"unap2p/internal/lookup"
	"unap2p/internal/megascale"
	"unap2p/internal/transport"
	"unap2p/internal/underlay"
)

// CompactConfig parameterizes a CompactDHT.
type CompactConfig struct {
	// K is the bucket width (entries per bucket).
	K int
	// Buckets caps the routing-table depth: the top Buckets distance
	// bands get a bucket each, and any distance below that resolution
	// collapses into slot 0 (the nearest band). With n peers the nearest
	// neighbor sits at XOR distance ~2^64/n, so Buckets ≳ log2(n)+4
	// leaves the collapsed band essentially empty. A bucket costs a peer
	// one count byte; its slots live in the peer's packed row and cost
	// only the contacts it holds.
	Buckets int
	// Aware, when true, fills spare bucket capacity preferring same-AS
	// contacts — the paper's proximity neighbor selection applied to the
	// compact table (lower latency per hop at equal correctness).
	Aware bool
}

// DefaultCompactConfig mirrors DefaultConfig at megascale-friendly size.
func DefaultCompactConfig() CompactConfig {
	return CompactConfig{K: 8, Buckets: 24}
}

// CompactDHT is a struct-of-arrays Kademlia over PeerTable peers for
// sharded megascale runs, built on the megascale runtime: node ids and
// ground truth come from a megascale.IDSpace, the iterative α-parallel
// lookup runs on the shared megascale.Iter state-machine driver, and
// request accounting lives in per-shard megascale.Counters. What stays
// Kademlia-specific is the routing geometry — the XOR metric, the packed
// bucket rows, and the outward bucket scan below.
//
// Peer p's contacts sit together in one row of uint32 slots, grouped by
// bucket in bucket order; cnt holds the bucket sizes, so a bucket starts
// where the counts of the buckets before it end. Seed lays the rows end
// to end in rt, each sized to its bootstrap contacts plus rowSlack free
// slots. An Observe that finds the row full moves it to the end of the
// append-only spill of p's shard with rowSlack more slots; the old slots
// are not reused. A row is written only by Observe at its own peer (the
// origin's Learn) and read only by closest at its own peer (Candidates),
// both on the peer's shard, so each spill is touched by one shard only.
type CompactDHT struct {
	cfg CompactConfig
	net *transport.ShardedNet

	space *megascale.IDSpace
	ids   []NodeID   // ids[p] is peer p's node id — flat view of space
	rt    []uint32   // rows laid end to end by Seed
	spill [][]uint32 // spill[s]: rows shard s moved out of rt, append-only
	off   []uint32   // peer p's row starts at rt[off[p]], or at spill[s][off[p]&^spilled] once spilled
	room  []uint16   // slots in peer p's row
	fill  []uint16   // contacts in peer p's row
	cnt   []uint8    // bucket fill counts, peer p at cnt[p*Buckets:]

	ctr  *megascale.Counters
	iter *megascale.Iter
}

// NewCompact builds a compact DHT over every peer in the net's table.
// Node ids are a deterministic hash of (seed, peer) — collisions are
// re-hashed so ids are unique. reqClass and repClass are the transport
// message classes for request and reply traffic.
func NewCompact(net *transport.ShardedNet, cfg CompactConfig, seed uint64, reqClass, repClass int) *CompactDHT {
	n := net.Peers().Len()
	if cfg.K <= 0 || cfg.K > math.MaxUint8 || cfg.Buckets <= 0 || cfg.Buckets > 64 {
		panic("kademlia: bad CompactConfig")
	}
	d := &CompactDHT{
		cfg: cfg, net: net,
		space: megascale.NewIDSpace(n, seed),
		spill: make([][]uint32, net.Kernel().NumShards()),
		off:   make([]uint32, n),
		room:  make([]uint16, n),
		fill:  make([]uint16, n),
		cnt:   make([]uint8, n*cfg.Buckets),
		ctr:   megascale.NewCounters(net.Kernel().NumShards()),
	}
	d.ids = make([]NodeID, n)
	for p := 0; p < n; p++ {
		d.ids[p] = NodeID(d.space.ID(underlay.PeerID(p)))
	}
	d.iter = megascale.NewIter(megascale.Iter{
		Net: net, ReqClass: reqClass, RepClass: repClass, RPCBytes: RPCBytes,
		Alpha: alpha, Width: 3 * cfg.K, Ctr: d.ctr,
		Dist: func(q underlay.PeerID, target uint64) uint64 {
			return uint64(d.ids[q]) ^ target
		},
		Candidates: func(q underlay.PeerID, target uint64, buf []underlay.PeerID) []underlay.PeerID {
			return d.closest(q, NodeID(target), buf)
		},
		Learn: d.Observe,
		OK: func(best underlay.PeerID, target uint64) bool {
			return uint64(d.ids[best]) == d.space.ClosestXOR(target)
		},
	})
	return d
}

// ID returns peer p's node id.
func (d *CompactDHT) ID(p underlay.PeerID) NodeID { return d.ids[p] }

// bucketOf maps an XOR distance to a bucket slot: the top cfg.Buckets
// distance bands in order, with everything nearer collapsed into slot 0.
func (d *CompactDHT) bucketOf(dist uint64) int {
	b := 63 - bits.LeadingZeros64(dist) // 0..63, highest set bit
	if over := 64 - d.cfg.Buckets; b >= over {
		return b - over
	}
	return 0
}

// rowSlack is the free slots a row gets beyond what it holds, at Seed
// and each time it spills. Rows of mega-dht (seed 1, 250k peers) that
// outgrow their slack in one round, by slack:
//
//	slack   8   12   16   24
//	rows  716  251   44    0
//
// 16 keeps spills rare at 64 B a peer.
const rowSlack = 16

// spilled marks an off entry that indexes its shard's spill, not rt.
const spilled = 1 << 31

// row returns peer p's row, all room[p] slots of it.
func (d *CompactDHT) row(p underlay.PeerID) []uint32 {
	o, r := d.off[p], uint32(d.room[p])
	rows := d.rt
	if o&spilled != 0 {
		rows, o = d.spill[d.net.ShardOf(p)], o&^spilled
	}
	return rows[o : o+r : o+r]
}

// Observe records contact q in peer p's routing table. Full buckets keep
// their existing entries (classic Kademlia's preference for old, stable
// contacts) — unless Aware is set and q is in p's AS while the bucket
// holds a cross-AS entry, in which case the farthest-AS entry is
// replaced (megascale.ReplaceCrossAS): proximity neighbor selection at
// equal bucket correctness. A new entry goes to the end of its bucket;
// a full row spills first.
func (d *CompactDHT) Observe(p, q underlay.PeerID) {
	if p == q {
		return
	}
	b := d.bucketOf(Distance(d.ids[p], d.ids[q]))
	cnt := d.cnt[int(p)*d.cfg.Buckets:][:d.cfg.Buckets]
	c := int(cnt[b])
	if c == d.cfg.K && !d.cfg.Aware {
		return // q is in the bucket or does not get in: no scan needed
	}
	used := int(d.fill[p])
	at := 0 // where bucket b starts: sum the shorter side of the counts
	if b < len(cnt)/2 {
		for _, x := range cnt[:b] {
			at += int(x)
		}
	} else {
		at = used
		for _, x := range cnt[b:] {
			at -= int(x)
		}
	}
	row := d.row(p)
	bucket := row[at : at+c]
	for _, x := range bucket {
		if x == uint32(q) {
			return
		}
	}
	if c < d.cfg.K {
		if used == len(row) {
			row = d.spillRow(p, row)
		}
		row = row[:used+1]
		for i := used; i > at+c; i-- { // the buckets after b move up a slot
			row[i] = row[i-1]
		}
		row[at+c] = uint32(q)
		cnt[b]++
		d.fill[p]++
		return
	}
	if i := megascale.ReplaceCrossAS(d.net.Peers(), p, q, bucket); i >= 0 {
		bucket[i] = uint32(q)
	}
}

// spillRow moves p's full row, whose contacts are held, to the end of
// its shard's spill with rowSlack more slots, and returns the new row.
func (d *CompactDHT) spillRow(p underlay.PeerID, held []uint32) []uint32 {
	s := d.net.ShardOf(p)
	room := min(len(held)+rowSlack, d.cfg.Buckets*d.cfg.K)
	sp := d.spill[s]
	at := len(sp)
	sp = append(sp, held...)
	sp = append(sp, make([]uint32, room-len(held))...)
	d.spill[s] = sp
	d.off[p], d.room[p] = uint32(at)|spilled, uint16(room)
	return sp[at : at+room : at+room]
}

// Seed populates every peer's table deterministically with contacts at
// every distance scale — megascale.IDSpace.SeedContacts (random fanout +
// bidirectional ring links + geometric fingers) feeding Observe — and
// lays the rows end to end in rt. SeedContacts visits the peers in order
// and gives each at most fanout+2·near+2·⌈log₂ n⌉ distinct contacts, so
// rt is sized once from that bound; each row, once its peer is done,
// keeps what it holds plus rowSlack. A peer's contacts reach Observe
// bucket by bucket, each bucket's in the order SeedContacts gave them:
// buckets fill independently, so the table is the same as in arrival
// order, and each new entry lands at the row's end, so nothing moves.
// Call once, during single-threaded setup.
func (d *CompactDHT) Seed(seed uint64, fanout, near int) {
	if d.rt != nil {
		panic("kademlia: Seed called twice")
	}
	n := len(d.ids)
	most := fanout + 2*near + 2*bits.Len(uint(n-1))
	held := 0 // contacts observed before Seed, all in spilled rows
	for _, c := range d.fill {
		held += int(c)
	}
	d.rt = make([]uint32, held+n*(most+rowSlack))
	if uint64(len(d.rt)) > spilled {
		panic("kademlia: compact table too large")
	}
	end, cur := 0, underlay.PeerID(0)
	var got, sorted []underlay.PeerID // cur's contacts, in arrival and bucket order
	var at [65]int
	lay := func() { // lay cur's row at end, fill it, close it
		p := cur
		old := d.row(p)[:d.fill[p]]
		d.off[p], d.room[p] = uint32(end), uint16(min(len(old)+len(got), d.cfg.Buckets*d.cfg.K))
		copy(d.row(p), old)
		clear(at[:])
		for _, q := range got {
			at[d.bucketOf(Distance(d.ids[p], d.ids[q]))+1]++
		}
		for b := 1; b <= d.cfg.Buckets; b++ {
			at[b] += at[b-1]
		}
		sorted = append(sorted[:0], got...)
		for _, q := range got {
			b := d.bucketOf(Distance(d.ids[p], d.ids[q]))
			sorted[at[b]] = q
			at[b]++
		}
		for _, q := range sorted {
			d.Observe(p, q)
		}
		d.room[p] = uint16(min(int(d.fill[p])+rowSlack, d.cfg.Buckets*d.cfg.K))
		end += int(d.room[p])
		got = got[:0]
	}
	d.space.SeedContacts(seed, fanout, near, func(p, q underlay.PeerID) {
		if p != cur {
			lay()
			cur = p
		}
		got = append(got, q)
	})
	lay()
}

// Bootstrap implements megascale.CompactOverlay with the standard
// megascale contact mix (fanout 20, ring ±4).
func (d *CompactDHT) Bootstrap(seed uint64) { d.Seed(seed, 20, 4) }

// closest appends to buf the K contacts of p's table nearest to target,
// nearest first: buckets are scanned outward from the target's until 4K
// entries have been seen, each offered to a lookup.Shortlist on the stack.
// The buckets seen always form one run of p's row, row[lo:hi].
func (d *CompactDHT) closest(p underlay.PeerID, target NodeID, buf []underlay.PeerID) []underlay.PeerID {
	var stack [shortlistStack]lookup.Entry[underlay.PeerID]
	best := lookup.New(stack[:], d.cfg.K)
	offer := func(qs []uint32) {
		for _, q := range qs {
			best.Offer(underlay.PeerID(q), Distance(d.ids[q], target), false)
		}
	}
	cnt := d.cnt[int(p)*d.cfg.Buckets:][:d.cfg.Buckets]
	row := d.row(p)
	start := d.bucketOf(Distance(d.ids[p], target) | 1)
	hi := int(d.fill[p])
	for _, c := range cnt[start+1:] {
		hi -= int(c)
	}
	lo := hi - int(cnt[start])
	offer(row[lo:hi])
	for off := 1; off < d.cfg.Buckets && hi-lo < 4*d.cfg.K; off++ {
		if b := start - off; b >= 0 {
			offer(row[lo-int(cnt[b]) : lo])
			lo -= int(cnt[b])
		}
		if b := start + off; b < d.cfg.Buckets {
			offer(row[hi : hi+int(cnt[b])])
			hi += int(cnt[b])
		}
	}
	return best.AppendIDs(buf)
}

// shortlistStack is the widest K whose candidate ranking stays on the
// stack (DefaultCompactConfig asks for 8).
const shortlistStack = 16

// ClosestGlobal returns the peer id globally XOR-closest to target —
// exact ground truth via the id space's binary-trie descent.
func (d *CompactDHT) ClosestGlobal(target NodeID) NodeID {
	return NodeID(d.space.ClosestXOR(uint64(target)))
}

// Query implements megascale.CompactOverlay: one lookup for a
// pseudo-random target derived from the per-request seed.
func (d *CompactDHT) Query(origin underlay.PeerID, seed uint64, onDone func(megascale.Result)) {
	d.iter.Start(origin, megascale.Mix64(seed), onDone)
}

// MegaStats aggregates the shared runtime counters
// (megascale.CompactOverlay).
func (d *CompactDHT) MegaStats() megascale.Stats { return d.ctr.Stats() }

// HealthStats exposes lookup health for telemetry sampling at barriers.
func (d *CompactDHT) HealthStats() map[string]float64 { return d.ctr.Health() }
