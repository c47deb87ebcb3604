package gsh

import (
	"testing"
	"testing/quick"

	"unap2p/internal/core"
	"unap2p/internal/geo"
	"unap2p/internal/sim"
	"unap2p/internal/topology"
	"unap2p/internal/transport"
	"unap2p/internal/underlay"
)

func buildGSH(t *testing.T) (*underlay.Network, *Overlay) {
	t.Helper()
	src := sim.NewSource(1)
	net := topology.Star(6, topology.DefaultConfig())
	topology.PlaceHosts(net, 25, false, 1, 5, src.Stream("place"))
	o := New(transport.Over(net), core.GeoSelector{})
	for _, h := range net.Hosts() {
		o.Join(h)
	}
	return net, o
}

func TestZoneOfHierarchy(t *testing.T) {
	c := geo.Coord{Lat: 45, Lon: 90} // NE quadrant
	if z := zoneOf(c, 1); z != 3 {
		t.Fatalf("level-1 zone = %b, want 11", z)
	}
	if z := zoneOf(c, 0); z != 0 {
		t.Fatalf("level-0 zone = %v, want 0 (world)", z)
	}
	// Prefix property: level-l code is a prefix of level-(l+1).
	for l := 1; l < 6; l++ {
		parent := zoneOf(c, l)
		child := zoneOf(c, l+1)
		if child>>2 != parent {
			t.Fatalf("level %d code %b not prefix of %b", l, parent, child)
		}
	}
}

func TestQuickZonePrefixProperty(t *testing.T) {
	f := func(latRaw, lonRaw uint16, lRaw uint8) bool {
		c := geo.Coord{
			Lat: float64(latRaw)/65535*180 - 90,
			Lon: float64(lonRaw)/65535*360 - 180,
		}
		l := int(lRaw%8) + 1
		return zoneOf(c, l+1)>>2 == zoneOf(c, l)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPublishLookupRoundTrip(t *testing.T) {
	net, o := buildGSH(t)
	holder := net.Hosts()[3]
	k := HashKey("song.mp3")
	pst := o.Publish(holder, k)
	if pst.Msgs == 0 {
		t.Fatal("publish sent no messages")
	}
	// Lookup from anywhere finds it (worst case via the root).
	for _, req := range []*underlay.Host{net.Hosts()[3], net.Hosts()[50], net.Hosts()[120]} {
		holders, st := o.Lookup(req, k)
		if len(holders) != 1 || holders[0] != holder.ID {
			t.Fatalf("lookup from %d = %v", req.ID, holders)
		}
		if st.Level < 0 {
			t.Fatal("level not reported")
		}
	}
}

func TestLookupMiss(t *testing.T) {
	net, o := buildGSH(t)
	holders, st := o.Lookup(net.Hosts()[0], HashKey("never-published"))
	if holders != nil || st.Level != -1 {
		t.Fatalf("miss returned %v at level %d", holders, st.Level)
	}
}

func TestScopedResolutionStaysLocal(t *testing.T) {
	net, o := buildGSH(t)
	// Two hosts in the same leaf zone: publisher and requester.
	var pub, req *underlay.Host
	for _, a := range net.Hosts() {
		for _, b := range net.Hosts() {
			if a.ID != b.ID &&
				zoneOf(geo.Coord{Lat: a.Lat, Lon: a.Lon}, MaxLevel) ==
					zoneOf(geo.Coord{Lat: b.Lat, Lon: b.Lon}, MaxLevel) {
				pub, req = a, b
				break
			}
		}
		if pub != nil {
			break
		}
	}
	if pub == nil {
		t.Skip("no co-zoned pair in topology")
	}
	k := HashKey("local-item")
	o.Publish(pub, k)
	_, st := o.Lookup(req, k)
	if st.Level != MaxLevel {
		t.Fatalf("co-zoned lookup resolved at level %d, want leaf level %d",
			st.Level, MaxLevel)
	}
}

func TestGlobalLookupAlwaysRoot(t *testing.T) {
	net, o := buildGSH(t)
	k := HashKey("item-x")
	o.Publish(net.Hosts()[7], k)
	holders, st := o.GlobalLookup(net.Hosts()[40], k)
	if len(holders) != 1 || st.Level != 0 {
		t.Fatalf("global lookup = %v at level %d", holders, st.Level)
	}
}

func TestNoHotSpotVsGlobal(t *testing.T) {
	net, o := buildGSH(t)
	// Publish one popular item from many holders, then issue many
	// lookups for it from co-located requesters.
	k := HashKey("blockbuster")
	for i := 0; i < 30; i++ {
		o.Publish(net.Hosts()[i*4], k)
	}
	o.ResetLoad()
	for i := 0; i < 200; i++ {
		o.Lookup(net.Hosts()[i%len(net.Hosts())], k)
	}
	maxScoped, meanScoped := o.MaxLoad()
	o.ResetLoad()
	for i := 0; i < 200; i++ {
		o.GlobalLookup(net.Hosts()[i%len(net.Hosts())], k)
	}
	maxGlobal, meanGlobal := o.MaxLoad()
	// Global funnels every request to one node; scoped spreads them.
	if maxScoped >= maxGlobal {
		t.Fatalf("no hot-spot relief: scoped max %d vs global max %d", maxScoped, maxGlobal)
	}
	if meanScoped <= 0 || meanGlobal <= 0 {
		t.Fatal("loads not recorded")
	}
	if float64(maxGlobal) < 10*meanGlobal {
		t.Fatalf("global rendezvous should be a hot spot: max %d mean %.1f", maxGlobal, meanGlobal)
	}
}

func TestPublishDeduplicatesHolder(t *testing.T) {
	net, o := buildGSH(t)
	h := net.Hosts()[0]
	k := HashKey("dup")
	o.Publish(h, k)
	o.Publish(h, k)
	holders, _ := o.Lookup(net.Hosts()[1], k)
	if len(holders) != 1 {
		t.Fatalf("duplicate registration: %v", holders)
	}
}

func TestJoinPanicsOnDuplicate(t *testing.T) {
	net, o := buildGSH(t)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	o.Join(net.Hosts()[0])
}

func TestRendezvousStability(t *testing.T) {
	net, o := buildGSH(t)
	k := HashKey("stable")
	z := zoneOf(geo.Coord{Lat: net.Hosts()[0].Lat, Lon: net.Hosts()[0].Lon}, 1)
	a, ok1 := o.responsible(1, z, k)
	b, ok2 := o.responsible(1, z, k)
	if !ok1 || !ok2 || a != b {
		t.Fatal("rendezvous not deterministic")
	}
}
