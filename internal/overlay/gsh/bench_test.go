package gsh

import (
	"fmt"
	"testing"

	"unap2p/internal/core"
	"unap2p/internal/sim"
	"unap2p/internal/topology"
	"unap2p/internal/transport"
)

func benchOverlay(b *testing.B) *Overlay {
	b.Helper()
	src := sim.NewSource(1)
	net := topology.Star(6, topology.DefaultConfig())
	topology.PlaceHosts(net, 40, false, 1, 5, src.Stream("place"))
	o := New(transport.Over(net), core.GeoSelector{})
	for _, h := range net.Hosts() {
		o.Join(h)
	}
	for i, h := range net.Hosts() {
		o.Publish(h, HashKey(fmt.Sprintf("item-%d", i)))
	}
	return o
}

// BenchmarkScopedLookup measures a GSH lookup with zone widening.
func BenchmarkScopedLookup(b *testing.B) {
	o := benchOverlay(b)
	hosts := o.T.Underlay().Hosts()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o.Lookup(hosts[i%len(hosts)], HashKey(fmt.Sprintf("item-%d", (i*7)%len(hosts))))
	}
}

// BenchmarkPublish measures scoped registration across all levels.
func BenchmarkPublish(b *testing.B) {
	o := benchOverlay(b)
	hosts := o.T.Underlay().Hosts()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o.Publish(hosts[i%len(hosts)], HashKey(fmt.Sprintf("bench-%d", i)))
	}
}
