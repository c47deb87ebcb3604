package kademlia

import (
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
	// leaves the collapsed band essentially empty while keeping the flat
	// array small.
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
// Kademlia-specific is the routing geometry — the XOR metric, the flat
// n×Buckets×K bucket table, and the outward bucket scan below.
type CompactDHT struct {
	cfg CompactConfig
	net *transport.ShardedNet

	space *megascale.IDSpace
	ids   []NodeID // ids[p] is peer p's node id — flat view of space
	rt    []uint32 // routing table slots, peer p at rt[p*Buckets*K:]
	cnt   []uint8  // bucket fill counts, peer p at cnt[p*Buckets:]

	ctr  *megascale.Counters
	iter *megascale.Iter
}

// NewCompact builds a compact DHT over every peer in the net's table.
// Node ids are a deterministic hash of (seed, peer) — collisions are
// re-hashed so ids are unique. reqClass and repClass are the transport
// message classes for request and reply traffic.
func NewCompact(net *transport.ShardedNet, cfg CompactConfig, seed uint64, reqClass, repClass int) *CompactDHT {
	n := net.Peers().Len()
	if cfg.K <= 0 || cfg.Buckets <= 0 {
		panic("kademlia: bad CompactConfig")
	}
	d := &CompactDHT{
		cfg: cfg, net: net,
		space: megascale.NewIDSpace(n, seed),
		rt:    make([]uint32, n*cfg.Buckets*cfg.K),
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

// Observe records contact q in peer p's routing table. Full buckets keep
// their existing entries (classic Kademlia's preference for old, stable
// contacts) — unless Aware is set and q is in p's AS while the bucket
// holds a cross-AS entry, in which case the farthest-AS entry is
// replaced (megascale.ReplaceCrossAS): proximity neighbor selection at
// equal bucket correctness.
func (d *CompactDHT) Observe(p, q underlay.PeerID) {
	if p == q {
		return
	}
	b := d.bucketOf(Distance(d.ids[p], d.ids[q]))
	base := (int(p)*d.cfg.Buckets + b) * d.cfg.K
	c := &d.cnt[int(p)*d.cfg.Buckets+b]
	for i := 0; i < int(*c); i++ {
		if d.rt[base+i] == uint32(q) {
			return
		}
	}
	if int(*c) < d.cfg.K {
		d.rt[base+int(*c)] = uint32(q)
		*c++
		return
	}
	if !d.cfg.Aware {
		return
	}
	if i := megascale.ReplaceCrossAS(d.net.Peers(), p, q, d.rt[base:base+d.cfg.K]); i >= 0 {
		d.rt[base+i] = uint32(q)
	}
}

// Seed populates every peer's table deterministically with contacts at
// every distance scale — megascale.IDSpace.SeedContacts (random fanout +
// bidirectional ring links + geometric fingers) feeding Observe. Call
// during single-threaded setup.
func (d *CompactDHT) Seed(seed uint64, fanout, near int) {
	d.space.SeedContacts(seed, fanout, near, d.Observe)
}

// Bootstrap implements megascale.CompactOverlay with the standard
// megascale contact mix (fanout 20, ring ±4).
func (d *CompactDHT) Bootstrap(seed uint64) { d.Seed(seed, 20, 4) }

// closest appends to buf the K contacts of p's table nearest to target,
// nearest first: buckets are scanned outward from the target's until 4K
// entries have been seen, each offered to a lookup.Shortlist on the stack.
func (d *CompactDHT) closest(p underlay.PeerID, target NodeID, buf []underlay.PeerID) []underlay.PeerID {
	var stack [shortlistStack]lookup.Entry[underlay.PeerID]
	best := lookup.New(stack[:], d.cfg.K)
	seen := 0
	consider := func(b int) {
		if b < 0 || b >= d.cfg.Buckets {
			return
		}
		row := int(p)*d.cfg.Buckets + b
		for _, q := range d.rt[row*d.cfg.K:][:d.cnt[row]] {
			best.Offer(underlay.PeerID(q), Distance(d.ids[q], target), false)
		}
		seen += int(d.cnt[row])
	}
	start := d.bucketOf(Distance(d.ids[p], target) | 1)
	consider(start)
	for off := 1; off < d.cfg.Buckets && seen < 4*d.cfg.K; off++ {
		consider(start - off)
		consider(start + off)
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
