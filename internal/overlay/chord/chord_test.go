package chord

import (
	"sort"
	"testing"
	"testing/quick"

	"unap2p/internal/core"
	"unap2p/internal/lookup"
	"unap2p/internal/sim"
	"unap2p/internal/topology"
	"unap2p/internal/transport"
	"unap2p/internal/underlay"
)

func buildRing(t testing.TB, nHosts int, pns bool, seed int64) (*underlay.Network, *Ring) {
	t.Helper()
	src := sim.NewSource(seed)
	net := topology.TransitStub(topology.TransitStubConfig{
		Config:   topology.Config{IntraDelay: 5, LinkDelay: 25, Rand: src.Stream("topo")},
		Transits: 2, Stubs: 8,
	})
	topology.PlaceHosts(net, (nHosts+7)/8, false, 1, 5, src.Stream("place"))
	var sel core.Selector
	if pns {
		sel = core.RTTSelector(net)
	}
	ring := New(transport.Over(net), sel, src.Stream("ring"))
	for i, h := range net.Hosts() {
		if i >= nHosts {
			break
		}
		ring.AddNode(h)
	}
	ring.Build()
	return net, ring
}

func TestLookupFindsOwner(t *testing.T) {
	_, ring := buildRing(t, 64, false, 1)
	probe := sim.NewSource(2).Stream("probe")
	for i := 0; i < 50; i++ {
		key := ID(probe.Uint64())
		from := ring.Nodes()[probe.Intn(len(ring.Nodes()))].Host.ID
		res := ring.Lookup(from, key)
		want := ring.successorOf(key)
		if res.Owner != want {
			t.Fatalf("lookup %x found %x, owner is %x", key, res.Owner.ID, want.ID)
		}
	}
}

func TestLookupLogarithmicHops(t *testing.T) {
	_, ring := buildRing(t, 96, false, 3)
	probe := sim.NewSource(4).Stream("probe")
	total := 0
	const lookups = 60
	for i := 0; i < lookups; i++ {
		res := ring.Lookup(ring.Nodes()[probe.Intn(96)].Host.ID, ID(probe.Uint64()))
		total += res.Hops
	}
	mean := float64(total) / lookups
	// log2(96) ≈ 6.6; greedy Chord averages ~½ log2 N.
	if mean > 8 {
		t.Fatalf("mean hops %.1f too high for 96 nodes", mean)
	}
	if mean == 0 {
		t.Fatal("lookups never routed")
	}
}

func TestPNSCutsLatencyNotHops(t *testing.T) {
	probeLatency := func(pns bool) (lat float64, hops float64) {
		_, ring := buildRing(t, 96, pns, 5)
		probe := sim.NewSource(6).Stream("probe")
		const lookups = 80
		for i := 0; i < lookups; i++ {
			res := ring.Lookup(ring.Nodes()[probe.Intn(96)].Host.ID, ID(probe.Uint64()))
			lat += float64(res.Latency)
			hops += float64(res.Hops)
		}
		return lat / lookups, hops / lookups
	}
	plainLat, plainHops := probeLatency(false)
	pnsLat, pnsHops := probeLatency(true)
	if pnsLat >= plainLat {
		t.Fatalf("PNS latency %.1f not below plain %.1f", pnsLat, plainLat)
	}
	if pnsHops > plainHops*1.35 {
		t.Fatalf("PNS inflated hops: %.2f vs %.2f", pnsHops, plainHops)
	}
}

func TestPNSLookupStillCorrect(t *testing.T) {
	_, ring := buildRing(t, 64, true, 7)
	probe := sim.NewSource(8).Stream("probe")
	for i := 0; i < 50; i++ {
		key := ID(probe.Uint64())
		res := ring.Lookup(ring.Nodes()[probe.Intn(64)].Host.ID, key)
		if res.Owner != ring.successorOf(key) {
			t.Fatalf("PNS lookup %d found wrong owner", i)
		}
	}
}

func TestFingerIntervals(t *testing.T) {
	_, ring := buildRing(t, 48, true, 9)
	for _, n := range ring.Nodes() {
		for i := 0; i < 64; i++ {
			f := n.fingers[i]
			if f == nil {
				continue
			}
			start := n.ID + (ID(1) << uint(i))
			if offset := f.ID - start; offset >= (ID(1) << uint(i)) {
				t.Fatalf("finger %d of %x outside interval: %x", i, n.ID, f.ID)
			}
		}
	}
}

func TestSuccessorsOrdered(t *testing.T) {
	_, ring := buildRing(t, 32, false, 10)
	for idx, n := range ring.Nodes() {
		for s, succ := range n.successors {
			want := ring.Nodes()[(idx+s+1)%len(ring.Nodes())]
			if succ != want {
				t.Fatalf("successor %d of node %d wrong", s, idx)
			}
		}
	}
}

func TestBetween(t *testing.T) {
	// x ∈ (a, b], the argument order nextHop reads the arc in.
	between := func(a, x, b ID) bool { return lookup.InArc(uint64(x), uint64(a), uint64(b)) }
	if !between(10, 20, 30) || between(10, 5, 30) {
		t.Fatal("plain interval broken")
	}
	// Wrapping interval (a > b).
	if !between(^ID(0)-5, 2, 10) || between(^ID(0)-5, ^ID(0)-7, 10) {
		t.Fatal("wrapped interval broken")
	}
	if !between(10, 30, 30) {
		t.Fatal("inclusive upper bound broken")
	}
}

func TestQuickLookupAlwaysOwner(t *testing.T) {
	_, ring := buildRing(t, 40, true, 11)
	f := func(keyRaw uint64, fromIdx uint8) bool {
		key := ID(keyRaw)
		from := ring.Nodes()[int(fromIdx)%40].Host.ID
		return ring.Lookup(from, key).Owner == ring.successorOf(key)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestValidation(t *testing.T) {
	net, ring := buildRing(t, 8, false, 12)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic on duplicate host")
			}
		}()
		ring.AddNode(net.Hosts()[0])
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic on empty Build")
			}
		}()
		New(transport.Over(net), nil, sim.NewSource(1).Stream("x")).Build()
	}()
}

// Joins are sorted inserts and hosts are indexed: the membership stays
// in strict ID order, and an evicted host is gone from both views.
func TestMembershipSortedAndIndexed(t *testing.T) {
	_, ring := buildRing(t, 100, false, 15)
	sorted := func() bool {
		return sort.SliceIsSorted(ring.Nodes(), func(i, j int) bool { return ring.Nodes()[i].ID < ring.Nodes()[j].ID })
	}
	if len(ring.Nodes()) != 100 || !sorted() {
		t.Fatalf("membership of %d not in ID order after joins", len(ring.Nodes()))
	}
	gone := ring.Nodes()[40]
	ring.Evict(gone.Host.ID)
	if len(ring.Nodes()) != 99 || !sorted() || ring.byID(gone.ID) != nil {
		t.Fatal("eviction left the dead node in the membership, or broke its order")
	}
	if res := ring.Lookup(gone.Host.ID, 1); res.Owner != nil || res.Hops != 0 {
		t.Fatalf("lookup from an evicted host routed: %+v", res)
	}
	if res := ring.Lookup(ring.Nodes()[0].Host.ID, gone.ID); res.Owner != ring.successorOf(gone.ID) {
		t.Fatal("lookup after eviction missed the new owner")
	}
}

// BenchmarkChordLookup measures greedy routing on a 96-node ring.
func BenchmarkChordLookup(b *testing.B) {
	_, ring := buildRing(b, 96, true, 13)
	probe := sim.NewSource(14).Stream("probe")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ring.Lookup(ring.Nodes()[probe.Intn(96)].Host.ID, ID(probe.Uint64()))
	}
}
