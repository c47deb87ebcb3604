package chord

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"unap2p/internal/megascale"
	"unap2p/internal/sim"
	"unap2p/internal/transport"
	"unap2p/internal/underlay"
)

// buildCompactRing wires a small sharded stack: star underlay, peer
// table, partition, kernel, transport, ring.
func buildCompactRing(t testing.TB, perAS, K int, seed uint64, aware bool) (*CompactRing, *transport.ShardedNet) {
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
	cfg.Aware = aware
	c := NewCompactRing(net, cfg, seed, 0, 1)
	c.Bootstrap(seed ^ 0x5eed)
	return c, net
}

// TestCompactRingGroundTruth brute-forces the ring predecessor and
// successor for a spread of targets.
func TestCompactRingGroundTruth(t *testing.T) {
	c, net := buildCompactRing(t, 16, 1, 3, false)
	n := net.Peers().Len()
	ids := make([]uint64, n)
	for p := 0; p < n; p++ {
		ids[p] = uint64(c.ID(underlay.PeerID(p)))
	}
	for i := 0; i < 200; i++ {
		target := megascale.Mix64(uint64(i) ^ 0xfeed)
		var pred, succ uint64
		pd, sd := ^uint64(0), ^uint64(0)
		for _, id := range ids {
			if d := megascale.CWDist(id, target-1); d < pd {
				pred, pd = id, d
			}
			if d := megascale.CWDist(target, id); d < sd {
				succ, sd = id, d
			}
		}
		if got := uint64(c.PredecessorGlobal(ID(target))); got != pred {
			t.Fatalf("target %x: PredecessorGlobal %x, brute %x", target, got, pred)
		}
		if got := uint64(c.SuccessorGlobal(ID(target))); got != succ {
			t.Fatalf("target %x: SuccessorGlobal %x, brute %x", target, got, succ)
		}
	}
}

// TestCompactRingLookupExact runs lookups from every peer on a static
// (no churn) ring and requires every one to converge on the exact ring
// predecessor — the acceptance bar for the Chord port.
func TestCompactRingLookupExact(t *testing.T) {
	c, net := buildCompactRing(t, 32, 2, 11, false)
	pt := net.Peers()
	for p := 0; p < pt.Len(); p++ {
		p := underlay.PeerID(p)
		target := ID(megascale.Mix64(uint64(p) ^ 0xabcd))
		net.Kernel().Shard(net.ShardOf(p)).Schedule(sim.Duration(int(p)%16), func() {
			c.Lookup(p, target, func(r megascale.Result) {
				if uint64(c.ID(r.Best)) != uint64(c.PredecessorGlobal(target)) != !r.OK {
					t.Errorf("peer %d: OK=%v disagrees with ground truth", r.Origin, r.OK)
				}
			})
		})
	}
	net.Kernel().Drain()
	st := c.MegaStats()
	if st.Done != uint64(pt.Len()) {
		t.Fatalf("completed %d of %d lookups", st.Done, pt.Len())
	}
	if rate := st.SuccessRate(); rate != 1 {
		t.Fatalf("exact rate %.4f != 1.0 on a static ring", rate)
	}
	if st.MeanHops() <= 0 {
		t.Fatal("no hops recorded")
	}
	if net.Stats().Msgs == 0 {
		t.Fatal("no transport traffic recorded")
	}
}

// TestCompactRingDeterministicAcrossK pins both halves of the kernel
// contract: each K reproduces itself bit-for-bit, and the workload-level
// outcomes (lookups done, exactness) agree between K=1 (the legacy
// single-kernel schedule) and K=4.
func TestCompactRingDeterministicAcrossK(t *testing.T) {
	run := func(K int) (megascale.Stats, transport.NetStats, sim.Time) {
		c, net := buildCompactRing(t, 24, K, 21, false)
		pt := net.Peers()
		megascale.AttachChurn(net, 77, megascale.ChurnConfig{
			Frac: 5, MeanOn: 400, MeanOff: 150,
		})
		for p := 0; p < pt.Len(); p += 3 {
			p := underlay.PeerID(p)
			net.Kernel().Shard(net.ShardOf(p)).Schedule(sim.Duration(int(p)), func() {
				c.Query(p, 0x777^uint64(p), nil)
			})
		}
		end := net.Kernel().Run(2000)
		return c.MegaStats(), net.Stats(), end
	}
	s1, n1, e1 := run(1)
	s1b, n1b, e1b := run(1)
	if s1 != s1b || !reflect.DeepEqual(n1, n1b) || e1 != e1b {
		t.Fatalf("K=1 not reproducible: %+v vs %+v", s1, s1b)
	}
	s4, n4, e4 := run(4)
	s4b, n4b, e4b := run(4)
	if s4 != s4b || !reflect.DeepEqual(n4, n4b) || e4 != e4b {
		t.Fatalf("K=4 not reproducible: %+v vs %+v", s4, s4b)
	}
	if s1.Done == 0 {
		t.Fatal("no lookups completed under churn")
	}
	// K is a performance knob, not a semantic one: identical workload
	// completion, exactness within timestamp-tie tolerance.
	if s4.Done != s1.Done || s4.Started != s1.Started {
		t.Fatalf("lookup counts depend on K: %+v vs %+v", s1, s4)
	}
	dOK := int64(s4.OK) - int64(s1.OK)
	if dOK < -2 || dOK > 2 {
		t.Fatalf("exactness drifts across K: %d vs %d", s1.OK, s4.OK)
	}
}

// TestCompactRingAwareFingers checks the Aware finger fill lifts the
// fraction of same-AS fingers without hurting exactness.
func TestCompactRingAwareFingers(t *testing.T) {
	sameASFrac := func(c *CompactRing, net *transport.ShardedNet) float64 {
		pt := net.Peers()
		same, total := 0, 0
		for p := 0; p < pt.Len(); p++ {
			_, fing := refRows(c, underlay.PeerID(p))
			for _, q := range fing {
				total++
				if pt.AS(q) == pt.AS(underlay.PeerID(p)) {
					same++
				}
			}
		}
		return float64(same) / float64(total)
	}
	plain, pnet := buildCompactRing(t, 32, 1, 5, false)
	aware, anet := buildCompactRing(t, 32, 1, 5, true)
	fp, fa := sameASFrac(plain, pnet), sameASFrac(aware, anet)
	if fa <= fp {
		t.Fatalf("aware same-AS finger fraction %.3f not above plain %.3f", fa, fp)
	}
	// Aware fingers stay inside their correctness band, so a static run
	// must still be exact.
	pt := anet.Peers()
	for p := 0; p < pt.Len(); p++ {
		p := underlay.PeerID(p)
		net := anet
		net.Kernel().Shard(net.ShardOf(p)).Schedule(0, func() {
			aware.Query(p, uint64(p)^0xbeef, nil)
		})
	}
	anet.Kernel().Drain()
	if rate := aware.MegaStats().SuccessRate(); rate != 1 {
		t.Fatalf("aware ring exact rate %.4f != 1.0 on a static ring", rate)
	}
}

// refRows is the successor and finger rows of peer p as NewCompactRing
// sized them and Bootstrap stored them before the ring derived its table
// from the rank order — the original sizing and fill loop, kept as the
// reference for candidates and for the Aware picks.
func refRows(c *CompactRing, p underlay.PeerID) (succ, fing []underlay.PeerID) {
	n := c.space.Len()
	nSucc := compactSuccessors
	if nSucc > n-1 {
		nSucc = n - 1
	}
	if nSucc < 0 {
		nSucc = 0
	}
	nFing := 0
	for 1<<nFing < n {
		nFing++
	}
	pt := c.net.Peers()
	r := c.space.Rank(p)
	for s := 0; s < nSucc; s++ {
		succ = append(succ, c.space.ByRank((r+1+s)%n))
	}
	for j := 0; j < nFing; j++ {
		off := 1 << j
		pick := c.space.ByRank((r + off) % n)
		if c.cfg.Aware {
			// Band [2^j, 2^(j+1)) ∩ [.., n): probe a bounded prefix
			// for a same-AS node.
			limit := off
			if off > n-off {
				limit = n - off
			}
			if limit > awareProbe {
				limit = awareProbe
			}
			for b := 0; b < limit; b++ {
				q := c.space.ByRank((r + off + b) % n)
				if pt.AS(q) == pt.AS(p) {
					pick = q
					break
				}
			}
		}
		fing = append(fing, pick)
	}
	return succ, fing
}

// refCandidates is candidates as it was before the shared
// lookup.Shortlist and the derived table — gather both of refRows' rows
// into a slice with a seen scan, sort all of it, truncate — kept as the
// reference the bounded insertion must match.
func refCandidates(c *CompactRing, q underlay.PeerID, target uint64) []underlay.PeerID {
	succ, fing := refRows(c, q)
	out := make([]underlay.PeerID, 0, len(succ)+len(fing))
	seen := func(p underlay.PeerID) bool {
		for _, e := range out {
			if e == p {
				return true
			}
		}
		return false
	}
	for _, p := range append(succ, fing...) {
		if !seen(p) {
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		di, dj := c.predDist(out[i], target), c.predDist(out[j], target)
		if di != dj {
			return di < dj
		}
		return out[i] < out[j]
	})
	k := compactSuccessors
	if len(out) > k {
		out = out[:k]
	}
	return out
}

// TestCompactCandidatesMatchReference: for every peer of a plain and an
// aware ring, a ring too small to fill a successor list, and an aware
// ring of 76 peers (not a power of two, so the top finger band is
// clipped below awareProbe), candidates returns the reference's contacts
// in the reference's order — for far targets and for targets at and
// either side of a node's own id, where the predecessor metric wraps —
// without allocating into a warmed buffer.
func TestCompactCandidatesMatchReference(t *testing.T) {
	for _, tc := range []struct {
		perAS int
		aware bool
	}{{32, false}, {32, true}, {1, false}, {19, true}} {
		c, net := buildCompactRing(t, tc.perAS, 1, 17, tc.aware)
		for q := 0; q < net.Peers().Len(); q++ {
			q := underlay.PeerID(q)
			id := uint64(c.ID(q))
			for i, target := range []uint64{
				megascale.Mix64(uint64(q)), megascale.Mix64(uint64(q) ^ 0xabc), id, id + 1, id - 1,
			} {
				if err := matchReference(c, q, target); err != "" {
					t.Fatalf("perAS=%d aware=%v peer %d target %d (%x):\n%s",
						tc.perAS, tc.aware, q, i, target, err)
				}
			}
		}
		buf := c.candidates(3, 0xfeedface, nil)
		if a := testing.AllocsPerRun(100, func() { buf = c.candidates(3, 0xfeedface, buf[:0]) }); a != 0 {
			t.Errorf("perAS=%d: candidates into a warmed buffer allocates %.0f times per call, want 0", tc.perAS, a)
		}
	}
}

// matchReference compares candidates with refCandidates for one peer and
// target, and describes the first difference ("" when they agree).
func matchReference(c *CompactRing, q underlay.PeerID, target uint64) string {
	got, want := c.candidates(q, target, nil), refCandidates(c, q, target)
	if len(want) == 0 || !reflect.DeepEqual(got, want) {
		return fmt.Sprintf(" got %v\nwant %v", got, want)
	}
	return ""
}

// FuzzCompactRingRows: for any ring size, seed, Aware setting and
// target, the table candidates derives from the rank order offers what
// the stored rows of refRows did, in the same order, at every peer.
func FuzzCompactRingRows(f *testing.F) {
	f.Add(uint8(31), uint64(17), false, uint64(0xfeedface))
	f.Add(uint8(31), uint64(17), true, uint64(0))
	f.Add(uint8(0), uint64(3), false, uint64(1))
	f.Add(uint8(18), uint64(5), true, ^uint64(0))
	f.Fuzz(func(t *testing.T, perAS uint8, seed uint64, aware bool, target uint64) {
		c, net := buildCompactRing(t, 1+int(perAS)%64, 1, seed, aware)
		for q := 0; q < net.Peers().Len(); q++ {
			if err := matchReference(c, underlay.PeerID(q), target); err != "" {
				t.Fatalf("peer %d target %x:\n%s", q, target, err)
			}
		}
	})
}

// TestCompactRingBootstrapStoresNothing: the ring keeps no per-peer
// table, so Bootstrap allocates nothing however many peers there are.
func TestCompactRingBootstrapStoresNothing(t *testing.T) {
	c, net := buildCompactRing(t, 256, 1, 7, true)
	if n := net.Peers().Len(); n < 1000 {
		t.Fatalf("ring of %d peers, want at least 1000", n)
	}
	if a := testing.AllocsPerRun(10, func() { c.Bootstrap(7) }); a != 0 {
		t.Fatalf("Bootstrap allocates %.0f times, want 0", a)
	}
}
