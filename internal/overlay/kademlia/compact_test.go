package kademlia

import (
	"math"
	"reflect"
	"slices"
	"sort"
	"testing"

	"unap2p/internal/churn"
	"unap2p/internal/megascale"
	"unap2p/internal/sim"
	"unap2p/internal/transport"
	"unap2p/internal/underlay"
)

// buildCompact wires a small sharded stack: star underlay, peer table,
// partition, kernel, transport, DHT.
func buildCompact(t testing.TB, perAS, K int, seed uint64) (*CompactDHT, *transport.ShardedNet) {
	t.Helper()
	u := underlay.New()
	transit := u.AddAS(underlay.TransitISP, 2)
	for i := 0; i < 4; i++ {
		stub := u.AddAS(underlay.LocalISP, 4)
		u.ConnectTransit(stub, transit, 10)
	}
	u.ComputeRoutes()
	pt := underlay.NewPeerTable(u, 4*perAS)
	for as := 1; as <= 4; as++ {
		for j := 0; j < perAS; j++ {
			pt.AddPeer(as, sim.Duration(2+j%4))
		}
	}
	part := underlay.PartitionASes(u.NumASes(),
		func(as int) int { return pt.PeersPerAS()[int32(as)] }, K)
	window := underlay.MinCrossShardLatency(pt, part)
	if window <= 0 {
		window = 5
	}
	sk := sim.NewSharded(K, window)
	net := transport.NewShardedNet(u, pt, part, sk, []string{"req", "rep"})
	cfg := DefaultCompactConfig()
	cfg.Buckets = 16
	d := NewCompact(net, cfg, seed, 0, 1)
	d.Seed(seed^0x5eed, 20, 4)
	return d, net
}

func TestCompactIDsUniqueDeterministic(t *testing.T) {
	d1, _ := buildCompact(t, 32, 1, 9)
	d2, _ := buildCompact(t, 32, 2, 9)
	seen := map[NodeID]bool{}
	for p := 0; p < 128; p++ {
		id := d1.ID(underlay.PeerID(p))
		if seen[id] {
			t.Fatalf("duplicate id %x", id)
		}
		seen[id] = true
		if id != d2.ID(underlay.PeerID(p)) {
			t.Fatal("ids depend on shard count")
		}
	}
}

func TestCompactClosestGlobalExact(t *testing.T) {
	d, _ := buildCompact(t, 16, 1, 3)
	// Brute force ground truth for a spread of targets.
	for i := 0; i < 200; i++ {
		target := NodeID(megascale.Mix64(uint64(i) ^ 0xfeed))
		var best NodeID
		bd := ^uint64(0)
		for p := range d.space.Len() {
			if id := d.ID(underlay.PeerID(p)); Distance(id, target) < bd {
				best, bd = id, Distance(id, target)
			}
		}
		if got := d.ClosestGlobal(target); got != best {
			t.Fatalf("target %x: ClosestGlobal %x, brute force %x", target, got, best)
		}
	}
}

// TestCompactLookupConverges runs self-lookups from every peer on a
// static (no churn) network and expects near-perfect exact results.
func TestCompactLookupConverges(t *testing.T) {
	d, net := buildCompact(t, 32, 2, 11)
	pt := net.Peers()
	for p := 0; p < pt.Len(); p++ {
		p := underlay.PeerID(p)
		net.Kernel().Shard(net.ShardOf(p)).Schedule(sim.Duration(p)/16, func() {
			d.Query(p, uint64(p)^0xabcd, nil)
		})
	}
	net.Kernel().Drain()
	st := d.MegaStats()
	if st.Done != uint64(pt.Len()) {
		t.Fatalf("completed %d of %d lookups", st.Done, pt.Len())
	}
	if rate := st.SuccessRate(); rate < 0.95 {
		t.Fatalf("success rate %.3f < 0.95 on a static network", rate)
	}
	if st.MeanHops() <= 0 {
		t.Fatal("no hops recorded")
	}
	if net.Stats().Msgs == 0 {
		t.Fatal("no transport traffic recorded")
	}
}

// TestCompactLookupDeterministicPerK pins that two identical runs (same
// seed, same K) produce identical lookup stats and traffic totals.
func TestCompactLookupDeterministicPerK(t *testing.T) {
	run := func() (megascale.Stats, transport.NetStats, sim.Time) {
		d, net := buildCompact(t, 24, 4, 21)
		pt := net.Peers()
		drv := &churn.ShardDriver{
			Seed: 77, Table: pt, Part: net.Partition(), Sk: net.Kernel(),
			MeanOn: 400, MeanOff: 150,
			Churns: func(p underlay.PeerID) bool { return p%5 == 0 },
		}
		drv.Start()
		for p := 0; p < pt.Len(); p += 3 {
			p := underlay.PeerID(p)
			net.Kernel().Shard(net.ShardOf(p)).Schedule(sim.Duration(p), func() {
				d.Query(p, uint64(p)^0x777, nil)
			})
		}
		end := net.Kernel().Run(2000)
		return d.MegaStats(), net.Stats(), end
	}
	s1, n1, e1 := run()
	s2, n2, e2 := run()
	if !reflect.DeepEqual(s1, s2) || !reflect.DeepEqual(n1, n2) || e1 != e2 {
		t.Fatalf("runs diverge:\n%+v vs %+v\n%+v vs %+v\nend %v vs %v", s1, s2, n1, n2, e1, e2)
	}
	if s1.Done == 0 {
		t.Fatal("no lookups completed under churn")
	}
}

// TestCompactObserveAware checks the Aware replacement policy prefers
// same-AS contacts once a bucket is full.
func TestCompactObserveAware(t *testing.T) {
	base, net := buildCompact(t, 64, 1, 5)
	pt := net.Peers()
	cfgPlain := base.cfg
	cfgAware := base.cfg
	cfgAware.Aware = true
	// Fresh unseeded tables so the comparison sees only this test's
	// observations.
	d := NewCompact(net, cfgPlain, 5, 0, 1)
	da := NewCompact(net, cfgAware, 5, 0, 1)
	// Fill peer 0's buckets from a stream of cross-AS peers, then offer
	// same-AS ones; the aware table must pick some up, the plain one not.
	sameAS := func(dht *CompactDHT) int {
		p0 := underlay.PeerID(0)
		for q := 0; q < pt.Len(); q++ {
			if pt.AS(underlay.PeerID(q)) != pt.AS(p0) {
				dht.Observe(p0, underlay.PeerID(q))
			}
		}
		for q := 0; q < pt.Len(); q++ {
			if pt.AS(underlay.PeerID(q)) == pt.AS(p0) && q != 0 {
				dht.Observe(p0, underlay.PeerID(q))
			}
		}
		cnt := 0
		for b := 0; b < dht.cfg.Buckets; b++ {
			for _, q := range bucket(dht, p0, b) {
				if pt.AS(underlay.PeerID(q)) == pt.AS(p0) {
					cnt++
				}
			}
		}
		return cnt
	}
	plain := sameAS(d)
	aware := sameAS(da)
	if aware <= plain {
		t.Fatalf("aware table holds %d same-AS contacts, plain %d", aware, plain)
	}
}

// bucket returns bucket b of peer p's packed row: it starts where the
// counts of the buckets before it end.
func bucket(d *CompactDHT, p underlay.PeerID, b int) []uint32 {
	cnt := d.cnt[int(p)*d.cfg.Buckets:][:d.cfg.Buckets]
	at := 0
	for _, c := range cnt[:b] {
		at += int(c)
	}
	return d.row(p)[at : at+int(cnt[b])]
}

// flatTable is the compact routing table as a flat n×Buckets×K array,
// the layout before packed rows: observe is CompactDHT.Observe of that
// layout verbatim, kept as the reference the packed rows must match
// bucket for bucket, in order.
type flatTable struct {
	d   *CompactDHT // ids, bucket bands, config and peer table
	rt  []uint32    // routing table slots, peer p at rt[p*Buckets*K:]
	cnt []uint8     // bucket fill counts, peer p at cnt[p*Buckets:]
}

func newFlatTable(d *CompactDHT) *flatTable {
	n := d.space.Len()
	return &flatTable{d: d, rt: make([]uint32, n*d.cfg.Buckets*d.cfg.K), cnt: make([]uint8, n*d.cfg.Buckets)}
}

func (f *flatTable) observe(p, q underlay.PeerID) {
	d := f.d
	if p == q {
		return
	}
	b := d.bucketOf(Distance(d.ID(p), d.ID(q)))
	base := (int(p)*d.cfg.Buckets + b) * d.cfg.K
	c := &f.cnt[int(p)*d.cfg.Buckets+b]
	for i := 0; i < int(*c); i++ {
		if f.rt[base+i] == uint32(q) {
			return
		}
	}
	if int(*c) < d.cfg.K {
		f.rt[base+int(*c)] = uint32(q)
		*c++
		return
	}
	if !d.cfg.Aware {
		return
	}
	if i := megascale.ReplaceCrossAS(d.net.Peers(), p, q, f.rt[base:base+d.cfg.K]); i >= 0 {
		f.rt[base+i] = uint32(q)
	}
}

func (f *flatTable) bucket(p underlay.PeerID, b int) []uint32 {
	row := int(p)*f.d.cfg.Buckets + b
	return f.rt[row*f.d.cfg.K:][:f.cnt[row]]
}

// packedVsFlat feeds one Observe stream to a packed CompactDHT and its
// flat reference and counts each peer's spills.
type packedVsFlat struct {
	d      *CompactDHT
	f      *flatTable
	spills []int
}

// newPackedVsFlat builds an unseeded table of bucket width k over net.
func newPackedVsFlat(net *transport.ShardedNet, k int, aware bool, seed uint64) *packedVsFlat {
	cfg := DefaultCompactConfig()
	cfg.K, cfg.Buckets, cfg.Aware = k, 16, aware
	d := NewCompact(net, cfg, seed, 0, 1)
	return &packedVsFlat{d: d, f: newFlatTable(d), spills: make([]int, d.space.Len())}
}

func (pf *packedVsFlat) observe(p, q underlay.PeerID) {
	off := pf.d.off[p]
	pf.d.Observe(p, q)
	if pf.d.off[p] != off && pf.d.off[p]&spilled != 0 {
		pf.spills[p]++
	}
	pf.f.observe(p, q)
}

// seed runs Seed on the packed table and the same contact stream into
// the flat one.
func (pf *packedVsFlat) seed(seed uint64) {
	pf.d.Seed(seed, 20, 4)
	pf.d.space.SeedContacts(seed, 20, 4, pf.f.observe)
}

// check fails t unless every bucket of every peer holds the same
// contacts in the same order in both tables.
func (pf *packedVsFlat) check(t *testing.T, stage string) {
	t.Helper()
	for p := range pf.d.space.Len() {
		p := underlay.PeerID(p)
		for b := 0; b < pf.d.cfg.Buckets; b++ {
			if got, want := bucket(pf.d, p, b), pf.f.bucket(p, b); !slices.Equal(got, want) {
				t.Fatalf("%s: K=%d aware=%v peer %d bucket %d: packed %v, flat %v",
					stage, pf.d.cfg.K, pf.d.cfg.Aware, p, b, got, want)
			}
		}
	}
}

// TestCompactPackedMatchesFlat feeds the same Observe stream to packed
// rows and the flat reference: contacts observed before Seed (rows grow
// from nothing through the spill), Seed itself, then a stream skewed onto
// a few peers so their rows spill again and again. Unaware and Aware, K
// from 3 to past the stack shortlist (rows over 255 slots).
func TestCompactPackedMatchesFlat(t *testing.T) {
	_, net := buildCompact(t, 64, 2, 17)
	n := uint64(net.Peers().Len())
	for _, k := range []int{3, 8, shortlistStack + 4} {
		for _, aware := range []bool{false, true} {
			pf := newPackedVsFlat(net, k, aware, 17)
			stream := func(from, to uint64) {
				for i := from; i < to; i++ {
					p := megascale.Mix64(i) % n
					if i%2 == 0 {
						p %= 6 // the hot peers
					}
					pf.observe(underlay.PeerID(p), underlay.PeerID(megascale.Mix64(i^0xc0ffee)%n))
				}
			}
			stream(0, 2000)
			pf.check(t, "before Seed")
			pf.seed(17 ^ 0x5eed)
			pf.check(t, "after Seed")
			stream(2000, 8000)
			pf.check(t, "after the stream")
			most := 0
			for _, c := range pf.spills {
				most = max(most, c)
			}
			if most < 2 {
				t.Fatalf("K=%d aware=%v: no row spilled more than once (most %d)", k, aware, most)
			}
		}
	}
}

// FuzzCompactObserve checks packed rows against the flat reference on
// arbitrary Observe streams: each byte pair of stream is one (peer,
// contact) observation, the first half before Seed and the rest after.
func FuzzCompactObserve(f *testing.F) {
	f.Add(uint8(3), false, []byte{0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 7, 9})
	f.Add(uint8(8), true, []byte("the same Observe stream, packed and flat"))
	f.Add(uint8(shortlistStack+4), true, make([]byte, 64))
	f.Add(uint8(1), false, []byte{1, 2, 2, 1, 1, 3, 3, 1, 200, 100})
	_, net := buildCompact(f, 16, 2, 23)
	n := net.Peers().Len()
	f.Fuzz(func(t *testing.T, k uint8, aware bool, stream []byte) {
		if k == 0 {
			return
		}
		pf := newPackedVsFlat(net, int(k), aware, 23)
		half := len(stream) / 4 * 2
		for i := 0; i+1 < len(stream); i += 2 {
			if i == half {
				pf.seed(23 ^ 0x5eed)
			}
			pf.observe(underlay.PeerID(int(stream[i])%n), underlay.PeerID(int(stream[i+1])%n))
		}
		pf.check(t, "end of stream")
	})
}

// TestCompactTableFootprint pins what the table costs a peer after
// Bootstrap at 20k peers: rows sized by the bootstrap bound plus
// rowSlack, an offset and a capacity per peer, a count per bucket — not
// Buckets×K slots. An Observe into a row with room allocates nothing.
func TestCompactTableFootprint(t *testing.T) {
	_, net := buildCompact(t, 5000, 2, 29)
	d := NewCompact(net, DefaultCompactConfig(), 29, 0, 1)
	d.Bootstrap(29 ^ 0x5eed)
	n := d.space.Len()
	bytes := 4*cap(d.rt) + 4*len(d.off) + 2*len(d.room) + 2*len(d.fill) + len(d.cnt)
	for _, sp := range d.spill {
		bytes += 4 * cap(sp)
	}
	most := 20 + 2*4 + 2*int(math.Ceil(math.Log2(float64(n))))
	if limit := 4*(most+rowSlack) + d.cfg.Buckets + 8; bytes > limit*n {
		t.Fatalf("table takes %.1f B a peer, want at most %d", float64(bytes)/float64(n), limit)
	}
	// Pair each of the first peers with a contact its table lacks whose
	// bucket has a free slot; each call below is a real insert.
	type pair struct{ p, q underlay.PeerID }
	var pairs []pair
	for p := underlay.PeerID(0); len(pairs) < 101; p++ {
		if d.room[p] == d.fill[p] {
			continue
		}
		for q := underlay.PeerID(n - 1); q > 0; q-- {
			b := d.bucketOf(Distance(d.ID(p), d.ID(q)))
			if q != p && len(bucket(d, p, b)) < d.cfg.K && !slices.Contains(bucket(d, p, b), uint32(q)) {
				pairs = append(pairs, pair{p, q})
				break
			}
		}
	}
	i := 0
	if a := testing.AllocsPerRun(100, func() { d.Observe(pairs[i].p, pairs[i].q); i++ }); a != 0 {
		t.Fatalf("Observe into a row with room allocates %.0f times per call, want 0", a)
	}
	for _, pr := range pairs {
		b := d.bucketOf(Distance(d.ID(pr.p), d.ID(pr.q)))
		if !slices.Contains(bucket(d, pr.p, b), uint32(pr.q)) || d.off[pr.p]&spilled != 0 {
			t.Fatalf("peer %d did not take contact %d in place", pr.p, pr.q)
		}
	}
}

// refCandidates is closest as it was before the shared lookup.Shortlist —
// gather the outward bucket scan into a slice, sort all of it, truncate —
// kept as the reference the bounded insertion must match.
func refCandidates(d *CompactDHT, p underlay.PeerID, target NodeID, k int) []underlay.PeerID {
	var out []underlay.PeerID
	self := d.ID(p)
	start := d.bucketOf(Distance(self, target) | 1)
	consider := func(b int) {
		if b < 0 || b >= d.cfg.Buckets {
			return
		}
		for _, q := range bucket(d, p, b) {
			out = append(out, underlay.PeerID(q))
		}
	}
	consider(start)
	for off := 1; off < d.cfg.Buckets && len(out) < 4*k; off++ {
		consider(start - off)
		consider(start + off)
	}
	sort.Slice(out, func(i, j int) bool {
		di := Distance(d.ID(out[i]), target)
		dj := Distance(d.ID(out[j]), target)
		if di != dj {
			return di < dj
		}
		return out[i] < out[j]
	})
	if len(out) > k {
		out = out[:k]
	}
	return out
}

// TestCompactClosestMatchesReference: over every peer of a seeded table,
// for far targets, targets next to the peer's own id (the collapsed near
// band) and K both under and over the stack scratch, closest returns the
// reference's contacts in the reference's order — and, while K fits the
// stack, without allocating into a warmed buffer.
func TestCompactClosestMatchesReference(t *testing.T) {
	for _, k := range []int{3, 8, shortlistStack + 4} {
		base, net := buildCompact(t, 64, 1, 13)
		cfg := base.cfg
		cfg.K = k
		d := NewCompact(net, cfg, 13, 0, 1)
		d.Seed(13^0x5eed, 20, 4)
		for p := 0; p < net.Peers().Len(); p++ {
			p := underlay.PeerID(p)
			for i, target := range []NodeID{
				NodeID(megascale.Mix64(uint64(p))), NodeID(megascale.Mix64(uint64(p) ^ 0xabc)),
				d.ID(p), d.ID(p) ^ 1, d.ID(p) ^ 0xffff, d.ID(underlay.PeerID((int(p) + 1) % net.Peers().Len())),
			} {
				got, want := d.closest(p, target, nil), refCandidates(d, p, target, k)
				if len(want) == 0 || !reflect.DeepEqual(got, want) {
					t.Fatalf("K=%d peer %d target %d (%x):\n got %v\nwant %v", k, p, i, target, got, want)
				}
			}
		}
		if k > shortlistStack {
			continue
		}
		target := NodeID(0xfeedface)
		buf := d.closest(7, target, nil)
		if a := testing.AllocsPerRun(100, func() { buf = d.closest(7, target, buf[:0]) }); a != 0 {
			t.Errorf("K=%d: closest into a warmed buffer allocates %.0f times per call, want 0", k, a)
		}
	}
}
