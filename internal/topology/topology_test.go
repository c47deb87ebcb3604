package topology

import (
	"testing"
	"testing/quick"

	"unap2p/internal/sim"
	"unap2p/internal/underlay"
)

func allReachable(net *underlay.Network) bool {
	for i := 0; i < net.NumASes(); i++ {
		for j := 0; j < net.NumASes(); j++ {
			if !net.Reachable(i, j) {
				return false
			}
		}
	}
	return true
}

func TestRing(t *testing.T) {
	net := Ring(5, DefaultConfig())
	if net.NumASes() != 5 || len(net.Links()) != 5 {
		t.Fatalf("ring: %s", Describe(net))
	}
	if !allReachable(net) {
		t.Fatal("ring not fully reachable")
	}
	// Opposite nodes are 2 hops apart on a 5-ring.
	if h := net.ASHops(0, 2); h != 2 {
		t.Fatalf("hops(0,2) = %d, want 2", h)
	}
	if h := net.ASHops(0, 4); h != 1 {
		t.Fatalf("hops(0,4) = %d, want 1 (wrap)", h)
	}
}

func TestStar(t *testing.T) {
	net := Star(5, DefaultConfig())
	if net.NumASes() != 5 || len(net.Links()) != 4 {
		t.Fatalf("star: %s", Describe(net))
	}
	if !allReachable(net) {
		t.Fatal("star not fully reachable")
	}
	// Leaf to leaf is always 2 hops via the hub.
	if h := net.ASHops(1, 2); h != 2 {
		t.Fatalf("hops(1,2) = %d, want 2", h)
	}
	if net.AS(0).Kind != underlay.TransitISP {
		t.Fatal("hub should be transit")
	}
}

func TestTree(t *testing.T) {
	net := Tree(7, 2, DefaultConfig())
	if net.NumASes() != 7 || len(net.Links()) != 6 {
		t.Fatalf("tree: %s", Describe(net))
	}
	if !allReachable(net) {
		t.Fatal("tree not fully reachable")
	}
	// Leaves 3 and 6 are in different subtrees: 3→1→0→2→6 = 4 hops.
	if h := net.ASHops(3, 6); h != 4 {
		t.Fatalf("hops(3,6) = %d, want 4", h)
	}
	// Interior vertices are transit, leaves local.
	if net.AS(0).Kind != underlay.TransitISP || net.AS(6).Kind != underlay.LocalISP {
		t.Fatal("tree roles wrong")
	}
}

func TestMesh(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Rand = sim.NewSource(1).Stream("mesh")
	net := Mesh(10, 3, cfg)
	if net.NumASes() != 10 {
		t.Fatalf("mesh: %s", Describe(net))
	}
	if !allReachable(net) {
		t.Fatal("mesh not fully reachable")
	}
	if len(net.Links()) < 9 {
		t.Fatalf("mesh has %d links, want ≥ spanning tree", len(net.Links()))
	}
}

func TestTransitStub(t *testing.T) {
	cfg := TransitStubConfig{
		Config:          Config{IntraDelay: 5, LinkDelay: 20, Rand: sim.NewSource(2).Stream("ts")},
		Transits:        3,
		Stubs:           12,
		MultihomeProb:   0.3,
		StubPeeringProb: 0.2,
	}
	net := TransitStub(cfg)
	if net.NumASes() != 15 {
		t.Fatalf("transit-stub: %s", Describe(net))
	}
	if !allReachable(net) {
		t.Fatal("transit-stub not fully reachable under valley-free")
	}
	// All transit-core links are peering; every stub has ≥1 transit link.
	for _, as := range net.ASes() {
		if as.Kind == underlay.LocalISP {
			hasTransit := false
			for _, l := range as.Links() {
				if l.Kind == underlay.Transit && l.A.ID == as.ID {
					hasTransit = true
				}
			}
			if !hasTransit {
				t.Fatalf("stub %d has no provider", as.ID)
			}
		}
	}
}

func TestBarabasiAlbert(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Rand = sim.NewSource(3).Stream("ba")
	net := BarabasiAlbert(30, 2, cfg)
	if net.NumASes() != 30 {
		t.Fatalf("ba: %s", Describe(net))
	}
	if !allReachable(net) {
		t.Fatal("BA graph not reachable")
	}
	// Scale-free shape: max degree should clearly exceed the mean.
	maxDeg, sumDeg := 0, 0
	for _, as := range net.ASes() {
		d := len(as.Links())
		sumDeg += d
		if d > maxDeg {
			maxDeg = d
		}
	}
	mean := float64(sumDeg) / 30
	if float64(maxDeg) < 2*mean {
		t.Fatalf("BA max degree %d not hub-like vs mean %.1f", maxDeg, mean)
	}
	// Same seed, same links in the same order.
	for i := 0; i < 5; i++ {
		cfg.Rand = sim.NewSource(3).Stream("ba")
		again := BarabasiAlbert(30, 2, cfg).Links()
		for j, l := range net.Links() {
			if a := again[j]; a.A.ID != l.A.ID || a.B.ID != l.B.ID || a.DelayAB != l.DelayAB {
				t.Fatalf("rebuild %d: link %d is %d-%d, want %d-%d", i, j, a.A.ID, a.B.ID, l.A.ID, l.B.ID)
			}
		}
	}
}

func TestWaxman(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Rand = sim.NewSource(4).Stream("waxman")
	net := Waxman(25, 0.4, 0.2, cfg)
	if net.NumASes() != 25 {
		t.Fatalf("waxman: %s", Describe(net))
	}
	if !allReachable(net) {
		t.Fatal("waxman graph not reachable after fix-up")
	}
}

func TestPlaceHosts(t *testing.T) {
	cfg := DefaultConfig()
	r := sim.NewSource(5).Stream("place")
	net := Star(4, cfg)
	hosts := PlaceHosts(net, 3, false, 2, 10, r)
	if len(hosts) != 9 { // 3 leaves × 3 hosts, hub excluded
		t.Fatalf("placed %d hosts, want 9", len(hosts))
	}
	for _, h := range hosts {
		if h.AccessDelay < 2 || h.AccessDelay >= 10 {
			t.Fatalf("access delay %v out of range", h.AccessDelay)
		}
		if h.Lat < -90 || h.Lat > 90 || h.Lon < -180 || h.Lon >= 180 {
			t.Fatalf("geo (%v,%v) out of range", h.Lat, h.Lon)
		}
		if h.AS.Kind == underlay.TransitISP {
			t.Fatal("host on transit AS despite includeTransit=false")
		}
	}
	// Hosts in the same AS should be geographically close (dispersion σ=1.5°).
	a := net.HostsInAS(1)
	if len(a) != 3 {
		t.Fatalf("AS1 has %d hosts", len(a))
	}
	hostsT := PlaceHosts(net, 1, true, 2, 2, r)
	if len(hostsT) != 4 {
		t.Fatalf("includeTransit placed %d, want 4", len(hostsT))
	}
}

func TestGeneratorPanics(t *testing.T) {
	cases := []func(){
		func() { Ring(2, DefaultConfig()) },
		func() { Star(1, DefaultConfig()) },
		func() { Tree(0, 2, DefaultConfig()) },
		func() { Mesh(5, 2, DefaultConfig()) },                     // no Rand
		func() { BarabasiAlbert(3, 3, DefaultConfig()) },           // n < m+1
		func() { Waxman(1, 0.5, 0.5, DefaultConfig()) },            // n < 2
		func() { TransitStub(TransitStubConfig{}) },                // zero config
		func() { PlaceHosts(underlay.New(), 1, false, 0, 0, nil) }, // nil rand
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d: expected panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestDeterminism(t *testing.T) {
	build := func() *underlay.Network {
		cfg := DefaultConfig()
		cfg.Rand = sim.NewSource(9).Stream("det")
		return Mesh(12, 3, cfg)
	}
	a, b := build(), build()
	if len(a.Links()) != len(b.Links()) {
		t.Fatal("mesh generation not deterministic")
	}
	for i := range a.Links() {
		la, lb := a.Links()[i], b.Links()[i]
		if la.A.ID != lb.A.ID || la.B.ID != lb.B.ID || la.DelayAB != lb.DelayAB {
			t.Fatalf("link %d differs between identical seeds", i)
		}
	}
}

// Property: every generated topology is fully reachable and hop counts
// satisfy the triangle inequality (hops(a,c) ≤ hops(a,b)+hops(b,c)) under
// shortest-path routing.
func TestQuickMeshTriangle(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%10) + 4
		cfg := DefaultConfig()
		cfg.Rand = sim.NewSource(seed).Stream("quick-mesh")
		net := Mesh(n, 2.5, cfg)
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				for c := 0; c < n; c++ {
					if net.ASHops(a, c) > net.ASHops(a, b)+net.ASHops(b, c) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestWaxmanDelayTracksDistance(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Rand = sim.NewSource(6).Stream("waxman2")
	net := Waxman(30, 0.5, 0.3, cfg)
	// Link delays are distance-derived: they must vary (not all equal to
	// the base LinkDelay) and stay within [1, LinkDelay·√2+1].
	minD, maxD := sim.Forever, sim.Duration(0)
	for _, l := range net.Links() {
		if l.DelayAB < minD {
			minD = l.DelayAB
		}
		if l.DelayAB > maxD {
			maxD = l.DelayAB
		}
		if l.DelayAB < 1 || float64(l.DelayAB) > float64(cfg.LinkDelay)*1.42+1 {
			t.Fatalf("waxman delay %v out of range", l.DelayAB)
		}
	}
	if minD == maxD {
		t.Fatal("waxman delays suspiciously uniform")
	}
}

func TestTransitStubMultihoming(t *testing.T) {
	cfg := TransitStubConfig{
		Config:        Config{IntraDelay: 5, LinkDelay: 20, Rand: sim.NewSource(7).Stream("mh")},
		Transits:      3,
		Stubs:         30,
		MultihomeProb: 1.0, // force multihoming everywhere
	}
	net := TransitStub(cfg)
	for _, as := range net.ASes() {
		if as.Kind != underlay.LocalISP {
			continue
		}
		providers := 0
		for _, l := range as.Links() {
			if l.Kind == underlay.Transit && l.A.ID == as.ID {
				providers++
			}
		}
		if providers != 2 {
			t.Fatalf("stub %d has %d providers, want 2 under prob 1.0", as.ID, providers)
		}
	}
}
