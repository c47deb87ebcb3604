package geotree

import (
	"testing"

	"unap2p/internal/core"
	"unap2p/internal/geo"
	"unap2p/internal/sim"
	"unap2p/internal/topology"
	"unap2p/internal/transport"
)

func benchTree(b *testing.B) (*Tree, geo.Coord) {
	b.Helper()
	src := sim.NewSource(1)
	net := topology.Star(8, topology.DefaultConfig())
	topology.PlaceHosts(net, 40, false, 1, 5, src.Stream("place"))
	tr := New(transport.Over(net), core.GeoSelector{})
	for _, h := range net.Hosts() {
		tr.Insert(h)
	}
	h0 := net.Hosts()[0]
	return tr, geo.Coord{Lat: h0.Lat, Lon: h0.Lon}
}

// BenchmarkSearchBox measures a 200 km area query over 280 peers.
func BenchmarkSearchBox(b *testing.B) {
	tr, center := benchTree(b)
	from := tr.U.Hosts()[0]
	box := geo.BoxAround(center, 200)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.SearchBox(from, box)
	}
}

// BenchmarkInsertRemove measures registration churn.
func BenchmarkInsertRemove(b *testing.B) {
	tr, _ := benchTree(b)
	h := tr.U.Hosts()[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Remove(h)
		tr.Insert(h)
	}
}
