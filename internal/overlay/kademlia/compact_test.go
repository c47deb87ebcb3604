package kademlia

import (
	"reflect"
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
func buildCompact(t *testing.T, perAS, K int, seed uint64) (*CompactDHT, *transport.ShardedNet) {
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
		for p := range d.ids {
			if dd := Distance(d.ids[p], target); dd < bd {
				best, bd = d.ids[p], dd
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
			base := b * dht.cfg.K
			for i := 0; i < int(dht.cnt[b]); i++ {
				if pt.AS(underlay.PeerID(dht.rt[base+i])) == pt.AS(p0) {
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

// refCandidates is closest as it was before the shared lookup.Shortlist —
// gather the outward bucket scan into a slice, sort all of it, truncate —
// kept as the reference the bounded insertion must match.
func refCandidates(d *CompactDHT, p underlay.PeerID, target NodeID, k int) []underlay.PeerID {
	var out []underlay.PeerID
	self := d.ids[p]
	start := d.bucketOf(Distance(self, target) | 1)
	consider := func(b int) {
		if b < 0 || b >= d.cfg.Buckets {
			return
		}
		base := (int(p)*d.cfg.Buckets + b) * d.cfg.K
		for i := 0; i < int(d.cnt[int(p)*d.cfg.Buckets+b]); i++ {
			out = append(out, underlay.PeerID(d.rt[base+i]))
		}
	}
	consider(start)
	for off := 1; off < d.cfg.Buckets && len(out) < 4*k; off++ {
		consider(start - off)
		consider(start + off)
	}
	sort.Slice(out, func(i, j int) bool {
		di := Distance(d.ids[out[i]], target)
		dj := Distance(d.ids[out[j]], target)
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
				d.ids[p], d.ids[p] ^ 1, d.ids[p] ^ 0xffff, d.ids[(int(p)+1)%len(d.ids)],
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
