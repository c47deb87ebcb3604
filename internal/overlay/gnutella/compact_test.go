package gnutella

import (
	"math"
	"reflect"
	"runtime"
	"testing"

	"unap2p/internal/megascale"
	"unap2p/internal/sim"
	"unap2p/internal/transport"
	"unap2p/internal/underlay"
)

// buildCompactFlood wires a small sharded stack: star underlay, peer
// table, partition, kernel, transport, flood overlay.
func buildCompactFlood(tb testing.TB, perAS, K int, seed uint64, aware bool) (*CompactFlood, *transport.ShardedNet) {
	tb.Helper()
	net := buildShardedNet(perAS, K, 10)
	return compactFloodOn(net, seed, aware), net
}

// compactFloodOn builds and bootstraps a flood overlay on net.
func compactFloodOn(net *transport.ShardedNet, seed uint64, aware bool) *CompactFlood {
	cfg := DefaultCompactConfig()
	cfg.Aware = aware
	g := NewCompactFlood(net, cfg, seed, 0, 1)
	g.Bootstrap(seed ^ 0x5eed)
	return g
}

// buildShardedNet is buildCompactFlood's stack without the overlay:
// perAS peers in each of 4 stub ASes, split over K shards, each stub
// linked to the transit with the given delay.
func buildShardedNet(perAS, K int, link sim.Duration) *transport.ShardedNet {
	u := underlay.New()
	transit := u.AddAS(underlay.TransitISP, 2)
	for i := 0; i < 4; i++ {
		stub := u.AddAS(underlay.LocalISP, 4)
		u.ConnectTransit(stub, transit, link)
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
	return transport.NewShardedNet(u, pt, part, sk, []string{"qry", "hit"})
}

// TestCompactFloodQueryTTLBound pins the QueryTTL range: a message
// carries the remaining TTL as an int16, so NewCompactFlood rejects a
// QueryTTL that would wrap — before Bootstrap, so a bad config never
// builds a topology — and a flood at the bound reports an in-range hop
// count.
func TestCompactFloodQueryTTLBound(t *testing.T) {
	for _, tc := range []struct {
		ttl int
		ok  bool
	}{{0, false}, {1, true}, {math.MaxInt16, true}, {math.MaxInt16 + 1, false}} {
		net := buildShardedNet(16, 2, 10)
		var g *CompactFlood
		func() {
			defer func() {
				if r := recover(); (r == nil) != tc.ok {
					t.Errorf("QueryTTL %d: panic %v, want accepted=%v", tc.ttl, r, tc.ok)
				}
			}()
			g = NewCompactFlood(net, CompactConfig{QueryTTL: tc.ttl}, 3, 0, 1)
		}()
		if !tc.ok || g == nil {
			continue
		}
		g.Bootstrap(3)
		var res []megascale.Result
		for p := underlay.PeerID(0); p < 8; p++ {
			g.Query(p, uint64(p), func(r megascale.Result) { res = append(res, r) })
		}
		net.Kernel().Drain()
		if len(res) != 8 {
			t.Fatalf("QueryTTL %d: %d of 8 queries scored", tc.ttl, len(res))
		}
		for _, r := range res {
			if r.OK && (r.Hops < 0 || r.Hops > tc.ttl+1) {
				t.Errorf("QueryTTL %d: hit from %d at %d hops", tc.ttl, r.Origin, r.Hops)
			}
		}
	}
}

// TestCompactFloodTopology checks the deterministic election and the
// structural invariants of the flat topology arrays.
func TestCompactFloodTopology(t *testing.T) {
	g, net := buildCompactFlood(t, 32, 1, 9, false)
	g2, _ := buildCompactFlood(t, 32, 2, 9, false)
	pt := net.Peers()
	n := pt.Len()
	if g.Ultras() == 0 || g.Ultras() == n {
		t.Fatalf("degenerate election: %d ultras of %d peers", g.Ultras(), n)
	}
	for p := 0; p < n; p++ {
		if g.IsUltra(underlay.PeerID(p)) != g2.IsUltra(underlay.PeerID(p)) {
			t.Fatal("election depends on shard count")
		}
		if g.IsUltra(underlay.PeerID(p)) {
			ui := int(g.uidx[p])
			deg := int(g.ncnt[ui])
			if deg == 0 || deg > compactMaxDeg {
				t.Fatalf("ultra %d degree %d out of range", p, deg)
			}
			// Neighbor symmetry.
			for i := 0; i < deg; i++ {
				v := g.nbr[ui*compactMaxDeg+i]
				vi := int(g.uidx[v])
				found := false
				for j := 0; j < int(g.ncnt[vi]); j++ {
					if g.nbr[vi*compactMaxDeg+j] == uint32(p) {
						found = true
					}
				}
				if !found {
					t.Fatalf("link %d→%d not symmetric", p, v)
				}
			}
			continue
		}
		// Leaves hold ≥1 parent, all ultras, each of which QRP sees the
		// leaf attached to.
		if g.pcnt[p] == 0 {
			t.Fatalf("leaf %d has no parents", p)
		}
		for i := 0; i < int(g.pcnt[p]); i++ {
			u := underlay.PeerID(g.par[p*compactLeafParents+i])
			if !g.IsUltra(u) {
				t.Fatalf("leaf %d parent %d is not an ultra", p, u)
			}
			if !g.attachedTo(underlay.PeerID(p), u) {
				t.Fatalf("leaf %d not attachedTo its parent %d", p, u)
			}
		}
	}
}

// TestCompactFloodFootprint bounds what building the flood allocates per
// peer: the election, the neighbor table and the parent rows, about
// 22 B. An id space (40 B a peer while it sorts, 24 kept) or per-ultra
// leaf lists, which no query reads, would break the bound.
func TestCompactFloodFootprint(t *testing.T) {
	net := buildShardedNet(5000, 1, 10)
	n := net.Peers().Len()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	g := NewCompactFlood(net, DefaultCompactConfig(), 1, 0, 1)
	g.Bootstrap(1)
	runtime.ReadMemStats(&after)
	perPeer := float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
	t.Logf("%d peers: %.1f B a peer", n, perPeer)
	if perPeer > 32 {
		t.Fatalf("NewCompactFlood+Bootstrap allocate %.1f B a peer at %d peers, want ≤ 32", perPeer, n)
	}
}

// TestCompactFloodQueryStatic floods queries on a static (no churn)
// network: every hit must be statically potential, and coverage of the
// potential set must be high.
func TestCompactFloodQueryStatic(t *testing.T) {
	g, net := buildCompactFlood(t, 32, 2, 11, false)
	pt := net.Peers()
	for p := 0; p < pt.Len(); p++ {
		p := underlay.PeerID(p)
		qseed := uint64(p) ^ 0xabcd
		net.Kernel().Shard(net.ShardOf(p)).Schedule(sim.Duration(int(p)%16), func() {
			g.Query(p, qseed, func(r megascale.Result) {
				if r.OK && !g.PotentialHit(r.Origin, megascale.Mix64(qseed^0x6e7e11a)) {
					t.Errorf("peer %d: actual hit without potential hit", r.Origin)
				}
				if r.OK && r.Hops <= 0 {
					t.Errorf("peer %d: hit with no hops", r.Origin)
				}
			})
		})
	}
	net.Kernel().Drain()
	st := g.MegaStats()
	if st.Done != uint64(pt.Len()) {
		t.Fatalf("scored %d of %d queries", st.Done, pt.Len())
	}
	pot := g.Potential()
	if st.OK > pot {
		t.Fatalf("hits %d exceed potential %d — ground-truth invariant broken", st.OK, pot)
	}
	if pot == 0 {
		t.Fatal("no statically reachable keys — topology too sparse for the test")
	}
	cov := float64(st.OK) / float64(pot)
	if cov < 0.9 {
		t.Fatalf("static coverage %.3f < 0.9 (hits %d, potential %d)", cov, st.OK, pot)
	}
	h := g.HealthStats()
	if h["coverage"] != cov {
		t.Fatalf("health coverage %.3f != %.3f", h["coverage"], cov)
	}
}

// TestCompactFloodDeterministicAcrossK pins per-K reproducibility and
// K-independence of the workload outcomes under churn.
func TestCompactFloodDeterministicAcrossK(t *testing.T) {
	run := func(K int) (megascale.Stats, uint64, transport.NetStats, sim.Time) {
		g, net := buildCompactFlood(t, 24, K, 21, false)
		pt := net.Peers()
		megascale.AttachChurn(net, 77, megascale.ChurnConfig{
			Frac: 5, MeanOn: 400, MeanOff: 150,
		})
		for p := 0; p < pt.Len(); p += 3 {
			p := underlay.PeerID(p)
			net.Kernel().Shard(net.ShardOf(p)).Schedule(sim.Duration(int(p)), func() {
				g.Query(p, 0x777^uint64(p), nil)
			})
		}
		end := net.Kernel().Run(8000)
		return g.MegaStats(), g.Potential(), net.Stats(), end
	}
	s1, p1, n1, e1 := run(1)
	s1b, p1b, n1b, e1b := run(1)
	if s1 != s1b || p1 != p1b || !reflect.DeepEqual(n1, n1b) || e1 != e1b {
		t.Fatalf("K=1 not reproducible: %+v vs %+v", s1, s1b)
	}
	s4, p4, n4, e4 := run(4)
	s4b, p4b, n4b, e4b := run(4)
	if s4 != s4b || p4 != p4b || !reflect.DeepEqual(n4, n4b) || e4 != e4b {
		t.Fatalf("K=4 not reproducible: %+v vs %+v", s4, s4b)
	}
	if s1.Done == 0 || s1.OK == 0 {
		t.Fatalf("no query activity under churn: %+v", s1)
	}
	if s4.Done != s1.Done || s4.Started != s1.Started || p4 != p1 {
		t.Fatalf("query counts depend on K: %+v/%d vs %+v/%d", s1, p1, s4, p4)
	}
	dOK := int64(s4.OK) - int64(s1.OK)
	if dOK < -2 || dOK > 2 {
		t.Fatalf("hit count drifts across K: %d vs %d", s1.OK, s4.OK)
	}
}

// TestCompactFloodAware checks biased neighbor selection raises the
// same-AS fraction of ultra links while keeping the k-external escape
// links that span ASes.
func TestCompactFloodAware(t *testing.T) {
	stats := func(g *CompactFlood, net *transport.ShardedNet) (sameFrac float64, crossLinks int) {
		pt := net.Peers()
		same, total := 0, 0
		for ui, up := range g.ultra {
			for i := 0; i < int(g.ncnt[ui]); i++ {
				v := g.nbr[ui*compactMaxDeg+i]
				total++
				if pt.AS(underlay.PeerID(up)) == pt.AS(underlay.PeerID(v)) {
					same++
				} else {
					crossLinks++
				}
			}
		}
		return float64(same) / float64(total), crossLinks
	}
	plain, pnet := buildCompactFlood(t, 48, 1, 5, false)
	aware, anet := buildCompactFlood(t, 48, 1, 5, true)
	fp, _ := stats(plain, pnet)
	fa, cross := stats(aware, anet)
	if fa <= fp {
		t.Fatalf("aware same-AS link fraction %.3f not above plain %.3f", fa, fp)
	}
	if cross == 0 {
		t.Fatal("aware graph lost every cross-AS link — k-external rule broken")
	}
}
