package telemetry

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"unap2p/internal/sim"
	"unap2p/internal/transport"
)

func TestSeriesRetention(t *testing.T) {
	s := NewSeries(3)
	for i := 0; i < 5; i++ {
		s.add(Sample{Seq: uint64(i)})
	}
	if s.Len() != 3 {
		t.Fatalf("retained %d samples, want 3", s.Len())
	}
	if s.Dropped() != 2 {
		t.Fatalf("dropped %d samples, want 2", s.Dropped())
	}
	got := s.Samples()
	if got[0].Seq != 2 || got[len(got)-1].Seq != 4 {
		t.Fatalf("window holds seqs %d..%d, want 2..4", got[0].Seq, got[len(got)-1].Seq)
	}
	last, ok := s.Last()
	if !ok || last.Seq != 4 {
		t.Fatalf("Last = %+v, %v", last, ok)
	}
}

func TestProbeManualSampleHealthSources(t *testing.T) {
	p := NewRecorder(Config{Interval: 100 * sim.Millisecond})
	p.ObserveHealth("ov", func() map[string]float64 {
		return map[string]float64{"x": 1, "bad": math.NaN(), "worse": math.Inf(1)}
	})
	// Same name again: auto-suffixed so both variants keep their curves.
	p.ObserveHealth("ov", func() map[string]float64 {
		return map[string]float64{"x": 2}
	})
	p.Sample()
	p.Sample()

	if p.Series().Len() != 2 {
		t.Fatalf("series holds %d samples, want 2", p.Series().Len())
	}
	smp, _ := p.Series().Last()
	if smp.Seq != 1 {
		t.Fatalf("second sample has seq %d, want 1", smp.Seq)
	}
	if got := smp.Values["health:ov:x"]; got != 1 {
		t.Fatalf("health:ov:x = %v, want 1", got)
	}
	if got := smp.Values["health:ov2:x"]; got != 2 {
		t.Fatalf("health:ov2:x = %v, want 2", got)
	}
	for _, k := range []string{"health:ov:bad", "health:ov:worse"} {
		if _, ok := smp.Values[k]; ok {
			t.Fatalf("non-finite value %s survived into the sample", k)
		}
	}
}

func TestProbeKernelTickSampling(t *testing.T) {
	net, hosts := testNet(1)
	k := sim.NewKernel()
	tr := transport.New(net, k)
	p := NewRecorder(Config{Interval: 10})
	p.ObserveTransport(tr)
	p.ObserveKernel(k)
	p.ObserveKernel(k) // idempotent: must not double the tick rate

	for i := 0; i < 5; i++ {
		k.At(sim.Time(i*10+5), func() { tr.Send(hosts[0], hosts[1], 100, "ping") })
	}
	end := k.Drain()
	if end != 45 {
		t.Fatalf("Drain ended at %v, want 45 — the probe tick extended the run", end)
	}
	// Ticks at 10, 20, 30, 40 fall inside the run; the one at 50 must not
	// fire (daemon events cannot keep Drain alive).
	samples := p.Series().Samples()
	if len(samples) != 4 {
		t.Fatalf("captured %d samples, want 4", len(samples))
	}
	for i, s := range samples {
		wantAt := sim.Time((i + 1) * 10)
		if s.At != wantAt {
			t.Fatalf("sample %d at %v, want %v", i, s.At, wantAt)
		}
		if got := s.Values["transport:bytes:ping"]; got != float64((i+1)*100) {
			t.Fatalf("sample %d sees %v ping bytes, want %d", i, got, (i+1)*100)
		}
	}
	// The cached snapshot serves the live /metrics endpoint.
	if snap := p.LatestSnapshot(); snap.Counters["transport:bytes:ping"] != 400 {
		t.Fatalf("LatestSnapshot ping bytes = %v, want 400", snap.Counters["transport:bytes:ping"])
	}
}

func TestSampleRecordRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewRunWriter(&buf)
	if err := w.WriteManifest(Manifest{Name: "s"}); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteEvent(Event{Cat: CatTransport, Type: "ping", Bytes: 10}); err != nil {
		t.Fatal(err)
	}
	smp := Sample{Seq: 7, At: 125, Values: map[string]float64{"a": 1.5}}
	if err := w.WriteSample(smp); err != nil {
		t.Fatal(err)
	}
	sum := Summary{Events: 1, Samples: 1, Metrics: newMetricsSnapshot()}
	if err := w.WriteSummary(sum); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	run, err := ReadRun(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(run.Samples) != 1 {
		t.Fatalf("read %d samples, want 1", len(run.Samples))
	}
	got := run.Samples[0]
	if got.Seq != 7 || got.At != 125 || got.Values["a"] != 1.5 {
		t.Fatalf("sample round-trip mangled: %+v", got)
	}
	if run.Summary.Samples != 1 {
		t.Fatalf("summary samples = %d, want 1", run.Summary.Samples)
	}
}

func TestRecorderCountsSamplesInSummary(t *testing.T) {
	var buf bytes.Buffer
	rec := NewRecorder(Config{Sink: NewRunWriter(&buf), Manifest: Manifest{Name: "s"}, Interval: 100 * sim.Millisecond})
	rec.Sample()
	rec.Sample()
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	if got := rec.Summary().Samples; got != 2 {
		t.Fatalf("summary counts %d samples, want 2", got)
	}
	run, err := ReadRun(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(run.Samples) != 2 {
		t.Fatalf("run file holds %d samples, want 2", len(run.Samples))
	}
}

// TestRecorderSamplingOffByDefault pins the Interval-0 contract every
// unsampled recording relies on: manual Sample and ObserveHealth calls
// (which experiments make whenever the observer offers them) write no
// sample record, so the run file stays what it was without sampling.
func TestRecorderSamplingOffByDefault(t *testing.T) {
	net, hosts := testNet(1)
	k := sim.NewKernel()
	tr := transport.New(net, k)
	var buf bytes.Buffer
	rec := NewRecorder(Config{Sink: NewRunWriter(&buf), Manifest: Manifest{Name: "off"}})
	rec.ObserveTransport(tr)
	rec.ObserveKernel(k)
	rec.ObserveHealth("ov", func() map[string]float64 { return map[string]float64{"x": 1} })
	k.At(250, func() { tr.Send(hosts[0], hosts[1], 100, "ping") })
	k.Drain()
	rec.Sample()
	rec.Sample()
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), `"t":"sample"`) {
		t.Fatal("an Interval-0 recorder wrote a sample record")
	}
	run, err := ReadRun(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if run.Summary.Samples != 0 || rec.Series().Len() != 0 || len(run.Events) != 1 {
		t.Fatalf("summary samples %d, series %d, events %d; want 0, 0, 1",
			run.Summary.Samples, rec.Series().Len(), len(run.Events))
	}
}

func TestSampleMetricsSortedUnion(t *testing.T) {
	samples := []Sample{
		{Values: map[string]float64{"b": 1}},
		{Values: map[string]float64{"a": 2, "b": 3}},
	}
	got := SampleMetrics(samples)
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("SampleMetrics = %v, want [a b]", got)
	}
	vals := SampleValues(samples, "a")
	if !math.IsNaN(vals[0]) || vals[1] != 2 {
		t.Fatalf("SampleValues(a) = %v, want [NaN 2]", vals)
	}
}

func TestSparkline(t *testing.T) {
	if got := Sparkline(nil, 10); got != "" {
		t.Fatalf("empty series renders %q", got)
	}
	got := Sparkline([]float64{0, 1, 2, 3}, 0)
	if got != "▁▃▅█" {
		t.Fatalf("ramp renders %q, want ▁▃▅█", got)
	}
	if got := Sparkline([]float64{5, 5, 5}, 0); got != "▁▁▁" {
		t.Fatalf("flat series renders %q", got)
	}
	if got := Sparkline([]float64{math.NaN(), 1, 2}, 0); !strings.HasPrefix(got, " ") {
		t.Fatalf("NaN cell renders %q, want leading space", got)
	}
	// Longer than width: bucket-averaged down to exactly width cells.
	long := make([]float64, 100)
	for i := range long {
		long[i] = float64(i)
	}
	if got := Sparkline(long, 10); len([]rune(got)) != 10 {
		t.Fatalf("downsampled width = %d, want 10", len([]rune(got)))
	}
}
