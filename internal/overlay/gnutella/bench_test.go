package gnutella

import (
	"testing"

	"unap2p/internal/core"
	"unap2p/internal/megascale"
	"unap2p/internal/sim"
	"unap2p/internal/topology"
	"unap2p/internal/transport"
	"unap2p/internal/underlay"
	"unap2p/internal/workload"
)

func benchOverlay(tb testing.TB, biased bool) *Overlay {
	tb.Helper()
	src := sim.NewSource(1)
	net := topology.TransitStub(topology.TransitStubConfig{
		Config:   topology.Config{IntraDelay: 5, LinkDelay: 20, Rand: src.Stream("topo")},
		Transits: 2, Stubs: 10,
	})
	hosts := topology.PlaceHosts(net, 10, false, 1, 5, src.Stream("place"))
	k := sim.NewKernel()
	cfg := DefaultConfig()
	var sel core.Selector
	if biased {
		sel = core.NewOracleSelector(net, true, false)
	}
	o := New(transport.New(net, k), sel, cfg, src.Stream("overlay"))
	for _, h := range hosts {
		o.AddNode(h, true)
	}
	o.JoinAll()
	c := workload.NewCatalog(50)
	workload.PopulateZipf(c, hosts, 3, 1.0, src.Stream("content"))
	o.Catalog = c
	return o
}

// BenchmarkSearchFlood measures one TTL-limited query flood + hit routing
// over a 100-node ultrapeer mesh.
func BenchmarkSearchFlood(b *testing.B) {
	o := benchOverlay(b, false)
	nodes := o.Nodes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o.RunSearch(nodes[i%len(nodes)].Host.ID, workload.ItemID(i%50))
	}
}

// BenchmarkPingFlood measures a discovery flood with reverse-path pongs.
func BenchmarkPingFlood(b *testing.B) {
	o := benchOverlay(b, false)
	nodes := o.Nodes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o.Ping(nodes[i%len(nodes)].Host.ID)
		o.K.Drain()
	}
}

// BenchmarkJoinAll measures overlay construction (hostcache sampling +
// neighbor selection) for 100 nodes.
func BenchmarkJoinAll(b *testing.B) {
	for i := 0; i < b.N; i++ {
		benchOverlay(b, true)
	}
}

// BenchmarkCompactFloodQuery measures one megascale Gnutella query, its
// flood and its deadline's ground-truth BFS, drained, on a 20 000-peer
// compact overlay split over K=2 shards.
func BenchmarkCompactFloodQuery(b *testing.B) {
	g, net := buildCompactFlood(b, 5000, 2, 1, false)
	n := uint64(net.Peers().Len())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Query(underlay.PeerID(megascale.Mix64(uint64(i))%n), uint64(i), nil)
		net.Kernel().Drain()
	}
}
