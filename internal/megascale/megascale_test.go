package megascale

import (
	"reflect"
	"sort"
	"testing"

	"unap2p/internal/sim"
	"unap2p/internal/transport"
	"unap2p/internal/underlay"
)

// buildStack wires a minimal sharded stack: star underlay with four stub
// ASes, perAS peers each, partitioned over K shards.
func buildStack(t *testing.T, perAS, K int) *transport.ShardedNet {
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
	return transport.NewShardedNet(u, pt, part, sk, []string{"req", "rep"})
}

func TestIDSpaceUniqueDeterministic(t *testing.T) {
	s1 := NewIDSpace(300, 7)
	s2 := NewIDSpace(300, 7)
	seen := map[uint64]bool{}
	for p := 0; p < s1.Len(); p++ {
		id := s1.ID(underlay.PeerID(p))
		if seen[id] {
			t.Fatalf("duplicate id %x", id)
		}
		seen[id] = true
		if id != s2.ID(underlay.PeerID(p)) {
			t.Fatal("ids not deterministic")
		}
		if s1.ByRank(s1.Rank(underlay.PeerID(p))) != underlay.PeerID(p) {
			t.Fatalf("rank/byRank disagree for peer %d", p)
		}
	}
}

// TestIDSpaceCollisionsMatchMapWalk forces collisions through a hash
// onto 2^14 values and checks the space against the walk NewIDSpace used
// to run: every peer in order, a set of the ids taken so far, a re-hash
// while the drawn id is taken, then a sort of the peers by id.
func TestIDSpaceCollisionsMatchMapWalk(t *testing.T) {
	weak := func(x uint64) uint64 { return Mix64(x) & (1<<14 - 1) }
	rehashed := 0
	for _, n := range []int{1, 2, 300, 2000} {
		for seed := uint64(0); seed < 4; seed++ {
			ids := make([]uint64, n)
			seen := make(map[uint64]bool, n)
			for p := 0; p < n; p++ {
				id := weak(seed ^ uint64(p)*0x9e3779b97f4a7c15)
				for seen[id] {
					id = weak(id)
					rehashed++
				}
				seen[id] = true
				ids[p] = id
			}
			byRank := make([]underlay.PeerID, n)
			for p := range byRank {
				byRank[p] = underlay.PeerID(p)
			}
			sort.Slice(byRank, func(i, j int) bool { return ids[byRank[i]] < ids[byRank[j]] })
			s := newIDSpace(n, seed, weak)
			if !reflect.DeepEqual(s.ids, ids) || !reflect.DeepEqual(s.byRank, byRank) {
				t.Fatalf("n=%d seed=%d: ids or rank order differ from the map walk", n, seed)
			}
			for r, p := range byRank {
				if s.sorted[r] != ids[p] || s.Rank(p) != r {
					t.Fatalf("n=%d seed=%d: sorted view or rank of peer %d wrong", n, seed, p)
				}
			}
		}
	}
	if rehashed < 100 {
		t.Fatalf("only %d re-hashes: the weak hash no longer exercises the collision path", rehashed)
	}
}

// TestIDSpaceGroundTruth brute-forces the three ground-truth queries —
// XOR-closest, ring successor, ring predecessor — against the trie and
// binary-search implementations.
func TestIDSpaceGroundTruth(t *testing.T) {
	s := NewIDSpace(257, 42)
	ids := make([]uint64, s.Len())
	for p := range ids {
		ids[p] = s.ID(underlay.PeerID(p))
	}
	for i := 0; i < 400; i++ {
		target := Mix64(uint64(i) ^ 0xfeed)
		if i == 0 {
			target = ids[17] // exercise the exact-match edge
		}
		bestXOR, bd := uint64(0), ^uint64(0)
		var succ, pred uint64
		sd, pd := ^uint64(0), ^uint64(0)
		for _, id := range ids {
			if d := id ^ target; d < bd {
				bestXOR, bd = id, d
			}
			if d := CWDist(target, id); d < sd {
				succ, sd = id, d
			}
			if d := CWDist(id, target-1); d < pd {
				pred, pd = id, d
			}
		}
		if got := s.ClosestXOR(target); got != bestXOR {
			t.Fatalf("target %x: ClosestXOR %x, brute %x", target, got, bestXOR)
		}
		if got := s.ID(s.ByRank(s.SuccessorRank(target))); got != succ {
			t.Fatalf("target %x: successor %x, brute %x", target, got, succ)
		}
		if got := s.PredecessorID(target); got != pred {
			t.Fatalf("target %x: predecessor %x, brute %x", target, got, pred)
		}
	}
}

func TestSeedContactsDeterministic(t *testing.T) {
	record := func() [][2]underlay.PeerID {
		s := NewIDSpace(128, 9)
		var pairs [][2]underlay.PeerID
		s.SeedContacts(0x5eed, 6, 2, func(p, q underlay.PeerID) {
			pairs = append(pairs, [2]underlay.PeerID{p, q})
		})
		return pairs
	}
	a, b := record(), record()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("SeedContacts order not deterministic")
	}
	if len(a) == 0 {
		t.Fatal("no contacts emitted")
	}
}

func TestCountersAggregate(t *testing.T) {
	c := NewCounters(3)
	c.Start(0)
	c.Start(2)
	c.Start(2)
	c.Finish(0, true, 4)
	c.Finish(2, false, 6)
	s := c.Stats()
	want := Stats{Started: 3, Done: 2, OK: 1, Hops: 10}
	if s != want {
		t.Fatalf("stats %+v, want %+v", s, want)
	}
	if s.SuccessRate() != 0.5 || s.MeanHops() != 5 {
		t.Fatalf("rates %v %v", s.SuccessRate(), s.MeanHops())
	}
	h := c.Health()
	if h["lookups_done"] != 2 || h["success_rate"] != 0.5 {
		t.Fatalf("health %v", h)
	}
}

func TestReplaceCrossAS(t *testing.T) {
	net := buildStack(t, 4, 1)
	pt := net.Peers()
	// Peers 0..3 share AS 1; peers 4..7 are AS 2 (cross-AS from peer 0).
	self := underlay.PeerID(0)
	cross := []uint32{4, 5}
	same := []uint32{1, 2}
	if i := ReplaceCrossAS(pt, self, 3, cross); i != 0 {
		t.Fatalf("same-AS candidate over cross-AS slots: got %d, want 0", i)
	}
	if i := ReplaceCrossAS(pt, self, 5, cross); i != -1 {
		t.Fatalf("cross-AS candidate must not replace: got %d", i)
	}
	if i := ReplaceCrossAS(pt, self, 3, same); i != -1 {
		t.Fatalf("all-same-AS slots must not be replaced: got %d", i)
	}
}

// TestIterConverges drives the generic iterative state machine with a
// trivial overlay (every peer's candidates are the globally XOR-nearest
// peers) and checks requests converge exactly and deterministically.
func TestIterConverges(t *testing.T) {
	run := func(K int) (Stats, transport.NetStats) {
		net := buildStack(t, 16, K)
		n := net.Peers().Len()
		space := NewIDSpace(n, 3)
		ctr := NewCounters(net.Kernel().NumShards())
		it := NewIter(Iter{
			Net: net, ReqClass: 0, RepClass: 1, RPCBytes: 64,
			Alpha: 2, Width: 8, Ctr: ctr,
			Dist: func(q underlay.PeerID, target uint64) uint64 {
				return space.ID(q) ^ target
			},
			Candidates: func(q underlay.PeerID, target uint64, out []underlay.PeerID) []underlay.PeerID {
				// Omniscient routing: a linear scan for the XOR-nearest
				// peer plus the target's ring neighborhood as filler.
				best, bd := underlay.PeerID(0), ^uint64(0)
				for p := 0; p < n; p++ {
					if d := space.ID(underlay.PeerID(p)) ^ target; d < bd {
						best, bd = underlay.PeerID(p), d
					}
				}
				out = append(out, best)
				r := space.SuccessorRank(target)
				for off := -2; off <= 2; off++ {
					out = append(out, space.ByRank(((r+off)%n+n)%n))
				}
				return out
			},
			OK: func(best underlay.PeerID, target uint64) bool {
				return space.ID(best) == space.ClosestXOR(target)
			},
		})
		for p := 0; p < n; p++ {
			p := underlay.PeerID(p)
			target := Mix64(uint64(p) ^ 0xabc)
			// The driver never answers with the origin itself, so steer
			// targets away from the origin-is-closest edge.
			for space.ClosestXOR(target) == space.ID(p) {
				target = Mix64(target)
			}
			net.Kernel().Shard(net.ShardOf(p)).Schedule(sim.Duration(p%7), func() {
				it.Start(p, target, nil)
			})
		}
		net.Kernel().Drain()
		return ctr.Stats(), net.Stats()
	}
	s1, n1 := run(1)
	s2, n2 := run(1)
	if s1 != s2 || !reflect.DeepEqual(n1, n2) {
		t.Fatalf("same-K runs diverge: %+v vs %+v", s1, s2)
	}
	if s1.Done != s1.Started || s1.Done == 0 {
		t.Fatalf("requests lost: %+v", s1)
	}
	if s1.SuccessRate() != 1 {
		t.Fatalf("omniscient candidates must converge exactly, rate %v", s1.SuccessRate())
	}
	s4, _ := run(4)
	if s4.Done != s1.Done || s4.OK != s1.OK {
		t.Fatalf("K=4 outcomes differ from K=1: %+v vs %+v", s4, s1)
	}
}

// TestAttachChurn pins the megascale churn wiring: the hashed Frac
// selection flips only its subset and the flip schedule is identical
// across shard counts.
func TestAttachChurn(t *testing.T) {
	run := func(K int) (int, uint64, uint64) {
		net := buildStack(t, 32, K)
		drv := AttachChurn(net, 99, ChurnConfig{Frac: 4, MeanOn: 40, MeanOff: 20})
		net.Kernel().Run(500)
		return net.Peers().UpCount(), drv.Joins(), drv.Leaves()
	}
	up1, j1, l1 := run(1)
	up2, j2, l2 := run(2)
	if up1 != up2 || j1 != j2 || l1 != l2 {
		t.Fatalf("churn depends on shard count: (%d,%d,%d) vs (%d,%d,%d)",
			up1, j1, l1, up2, j2, l2)
	}
	if l1 == 0 {
		t.Fatal("no churn activity")
	}
	if up1 == 0 {
		t.Fatal("everything churned off — Frac selection not applied")
	}
}
