package telemetry

import (
	"io"
	"testing"

	"unap2p/internal/sim"
	"unap2p/internal/transport"
)

// The Detached/Recorded pairs price attaching a Recorder to the transport
// hot path in the mode every recording run uses: a JSONL sink (here over
// io.Discard), so each message pays the Trace callback and its encode.
// Run both benchmarks of a pair with -benchmem and compare ns/op.

// benchRecorder returns a sink-attached recorder.
func benchRecorder() *Recorder {
	return NewRecorder(Config{Sink: NewRunWriter(io.Discard)})
}

func benchSend(b *testing.B, attach, accounted bool) {
	net, hosts := testNet(1)
	k := sim.NewKernel()
	tr := transport.New(net, k)
	if accounted {
		tr.MatrixFor("bench")
	}
	if attach {
		rec := benchRecorder()
		rec.ObserveTransport(tr)
		rec.ObserveKernel(k)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Send(hosts[i%len(hosts)], hosts[(i+1)%len(hosts)], 64, "bench")
	}
}

// Bare Send: per-type counters and latency histogram only — the
// cheapest possible configuration, so the least favorable denominator
// for relative recorder overhead.
func BenchmarkTransportSendDetached(b *testing.B) { benchSend(b, false, false) }
func BenchmarkTransportSendRecorded(b *testing.B) { benchSend(b, true, false) }

// Accounted Send: a traffic matrix is registered for the message type,
// as every experiment's AS-pair byte accounting does — the
// production-configured send path.
func BenchmarkTransportSendAccountedDetached(b *testing.B) { benchSend(b, false, true) }
func BenchmarkTransportSendAccountedRecorded(b *testing.B) { benchSend(b, true, true) }

// benchDeliver measures the full per-message path of kernel experiments:
// Send accounting plus delivery scheduling and dispatch — what one
// overlay message actually costs in a simulation.
func benchDeliver(b *testing.B, attach bool) {
	net, hosts := testNet(1)
	k := sim.NewKernel()
	tr := transport.New(net, k)
	if attach {
		rec := benchRecorder()
		rec.ObserveTransport(tr)
		rec.ObserveKernel(k)
	}
	delivered := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Deliver(hosts[i%len(hosts)], hosts[(i+1)%len(hosts)], 64, "bench", func() { delivered++ })
		k.Drain()
	}
	if delivered != b.N {
		b.Fatalf("delivered %d of %d", delivered, b.N)
	}
}

func BenchmarkTransportDeliverDetached(b *testing.B) { benchDeliver(b, false) }
func BenchmarkTransportDeliverRecorded(b *testing.B) { benchDeliver(b, true) }

// BenchmarkRecorderRecord isolates the recorder's own per-event cost —
// the lock and the count — without the encode a sink adds.
func BenchmarkRecorderRecord(b *testing.B) {
	rec := NewRecorder(Config{})
	e := Event{At: 1, Cat: CatTransport, Type: "bench", From: 0, To: 1, Bytes: 64, Latency: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec.Record(e)
	}
}

// BenchmarkProbeSample measures one sampling tick — a full metrics
// snapshot plus health-source reads — over a realistically loaded
// recorder. This is sampling's entire runtime cost: it adds no
// per-message work to the Send/Deliver hot paths (compare the
// Detached/Recorded pairs above), so total overhead is ticks × this.
func BenchmarkProbeSample(b *testing.B) {
	net, hosts := testNet(1)
	k := sim.NewKernel()
	tr := transport.New(net, k)
	tr.MatrixFor("bench")
	p := NewRecorder(Config{Interval: 10})
	p.ObserveTransport(tr)
	p.ObserveKernel(k)
	p.ObserveHealth("overlay", func() map[string]float64 {
		return map[string]float64{"a": 1, "b": 2, "c": 3}
	})
	for i := 0; i < 1000; i++ {
		tr.Send(hosts[i%len(hosts)], hosts[(i+1)%len(hosts)], 64, "bench")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Sample()
	}
}
