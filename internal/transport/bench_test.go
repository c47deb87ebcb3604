package transport

import (
	"testing"

	"unap2p/internal/sim"
	"unap2p/internal/underlay"
)

// benchNet mirrors internal/underlay's benchmark topology (3 transit /
// 40 stub ASes) so BenchmarkTransportSend is directly comparable with
// underlay.BenchmarkSend: the difference between the two is the
// transport layer's accounting overhead.
func benchNet() *underlay.Network {
	n := underlay.New()
	var transits []*underlay.AS
	for i := 0; i < 3; i++ {
		transits = append(transits, n.AddAS(underlay.TransitISP, 3))
	}
	for i := 0; i < 3; i++ {
		for j := i + 1; j < 3; j++ {
			n.ConnectPeering(transits[i], transits[j], 10)
		}
	}
	for i := 0; i < 40; i++ {
		s := n.AddAS(underlay.LocalISP, 2)
		n.ConnectTransit(s, transits[i%3], sim.Duration(10+i%7))
		n.AddHost(s, 3)
	}
	n.ComputeRoutes()
	return n
}

// BenchmarkTransportSend measures one instrumented message — counter,
// histogram, byte accounting — on top of the underlay charge that
// underlay.BenchmarkSend measures alone.
func BenchmarkTransportSend(b *testing.B) {
	n := benchNet()
	tr := Over(n)
	hosts := n.Hosts()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Send(hosts[i%len(hosts)], hosts[(i*11+3)%len(hosts)], 1000, "bench")
	}
}

// BenchmarkTransportSendWithFaults adds a Drop hook drawing a 1% seeded
// loss, measuring the hook call and RNG draw on the hot path.
func BenchmarkTransportSendWithFaults(b *testing.B) {
	n := benchNet()
	tr := Over(n)
	lossy(tr, 0.01, sim.NewSource(1).Stream("faults"))
	hosts := n.Hosts()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Send(hosts[i%len(hosts)], hosts[(i*11+3)%len(hosts)], 1000, "bench")
	}
}

// BenchmarkRoundTrip measures the request/reply fast path every RPC-style
// overlay now uses.
func BenchmarkRoundTrip(b *testing.B) {
	n := benchNet()
	tr := Over(n)
	hosts := n.Hosts()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.RoundTrip(hosts[i%len(hosts)], hosts[(i*7+1)%len(hosts)], 100, 100, "req", "resp")
	}
}
