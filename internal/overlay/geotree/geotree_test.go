package geotree

import (
	"testing"

	"unap2p/internal/core"
	"unap2p/internal/geo"
	"unap2p/internal/sim"
	"unap2p/internal/topology"
	"unap2p/internal/transport"
	"unap2p/internal/underlay"
)

func buildTree(t *testing.T, hostsPerAS int) (*underlay.Network, *Tree) {
	t.Helper()
	src := sim.NewSource(1)
	net := topology.Star(6, topology.DefaultConfig())
	topology.PlaceHosts(net, hostsPerAS, false, 1, 3, src.Stream("place"))
	tr := New(transport.Over(net), core.GeoSelector{})
	for _, h := range net.Hosts() {
		tr.Insert(h)
	}
	return net, tr
}

func TestInsertAndSize(t *testing.T) {
	net, tr := buildTree(t, 10)
	if tr.Size() != net.NumHosts() {
		t.Fatalf("size = %d, want %d", tr.Size(), net.NumHosts())
	}
	if tr.Msgs.Value("register") == 0 {
		t.Fatal("no registration messages counted")
	}
}

func TestInsertPanicsOnDuplicate(t *testing.T) {
	net, tr := buildTree(t, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	tr.Insert(net.Hosts()[0])
}

func TestTreeSplits(t *testing.T) {
	_, tr := buildTree(t, 10) // 50 hosts ≫ SplitThreshold 8
	if tr.Depth() == 0 {
		t.Fatal("tree never split")
	}
}

func TestSearchBoxExactness(t *testing.T) {
	net, tr := buildTree(t, 10)
	from := net.Hosts()[0]
	box := geo.Box{MinLat: -30, MaxLat: 30, MinLon: -60, MaxLon: 60}
	hits, st := tr.SearchBox(from, box)
	// Ground truth by linear scan.
	want := map[underlay.HostID]bool{}
	for _, h := range net.Hosts() {
		if h.Up && box.Contains(geo.Coord{Lat: h.Lat, Lon: h.Lon}) {
			want[h.ID] = true
		}
	}
	if len(hits) != len(want) {
		t.Fatalf("search found %d, want %d", len(hits), len(want))
	}
	for _, id := range hits {
		if !want[id] {
			t.Fatalf("false positive %d", id)
		}
	}
	if st.Msgs == 0 || st.ZonesVisited == 0 {
		t.Fatalf("no cost recorded: %+v", st)
	}
}

func TestSearchPrunesZones(t *testing.T) {
	net, tr := buildTree(t, 20)
	from := net.Hosts()[0]
	// A tiny box must visit far fewer zones than the whole world.
	_, small := tr.SearchBox(from, geo.BoxAround(geo.Coord{Lat: 0, Lon: 0}, 100))
	_, world := tr.SearchBox(from, geo.Box{MinLat: -90, MaxLat: 90, MinLon: -180, MaxLon: 180})
	if small.ZonesVisited >= world.ZonesVisited {
		t.Fatalf("no pruning: %d vs %d zones", small.ZonesVisited, world.ZonesVisited)
	}
}

func TestSearchSkipsOfflinePeers(t *testing.T) {
	net, tr := buildTree(t, 6)
	for _, h := range net.Hosts() {
		h.Up = false
	}
	hits, _ := tr.SearchBox(net.Hosts()[0], geo.Box{MinLat: -90, MaxLat: 90, MinLon: -180, MaxLon: 180})
	if len(hits) != 0 {
		t.Fatalf("found %d offline peers", len(hits))
	}
}

func TestRemoveAndSupervisorHandoff(t *testing.T) {
	net, tr := buildTree(t, 6)
	h := net.Hosts()[0]
	tr.Remove(h)
	if tr.Size() != net.NumHosts()-1 {
		t.Fatalf("size after remove = %d", tr.Size())
	}
	// Removed peer must no longer be findable.
	hits, _ := tr.SearchBox(net.Hosts()[1], geo.Box{MinLat: -90, MaxLat: 90, MinLon: -180, MaxLon: 180})
	for _, id := range hits {
		if id == h.ID {
			t.Fatal("removed peer still found")
		}
	}
	// Removing again is a no-op.
	tr.Remove(h)
}

func TestNearestPeer(t *testing.T) {
	net, tr := buildTree(t, 10)
	target := geo.Coord{Lat: net.Hosts()[7].Lat, Lon: net.Hosts()[7].Lon}
	id, st, ok := tr.NearestPeer(net.Hosts()[0], target)
	if !ok {
		t.Fatal("nearest peer not found")
	}
	got := net.Host(id)
	gotD := geo.Haversine(target, geo.Coord{Lat: got.Lat, Lon: got.Lon})
	// The true nearest is host 7 itself (distance 0) — but any peer at
	// distance 0..(first ring) is acceptable only if no closer exists.
	for _, h := range net.Hosts() {
		d := geo.Haversine(target, geo.Coord{Lat: h.Lat, Lon: h.Lon})
		if d < gotD-1e-9 {
			t.Fatalf("peer %d at %.1f km closer than returned %.1f km", h.ID, d, gotD)
		}
	}
	if st.Msgs == 0 {
		t.Fatal("no search cost recorded")
	}
}

func TestNearestPeerEmptyTree(t *testing.T) {
	src := sim.NewSource(2)
	net := topology.Star(3, topology.DefaultConfig())
	topology.PlaceHosts(net, 2, false, 1, 2, src.Stream("p"))
	tr := New(transport.Over(net), core.GeoSelector{})
	_, _, ok := tr.NearestPeer(net.Hosts()[0], geo.Coord{})
	if ok {
		t.Fatal("found a peer in an empty tree")
	}
}
