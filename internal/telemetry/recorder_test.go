package telemetry

import (
	"bytes"
	"strings"
	"testing"

	"unap2p/internal/churn"
	"unap2p/internal/geo"
	"unap2p/internal/mobility"
	"unap2p/internal/sim"
	"unap2p/internal/topology"
	"unap2p/internal/transport"
	"unap2p/internal/underlay"
)

// testNet builds a small deterministic underlay for recorder tests.
func testNet(seed int64) (*underlay.Network, []*underlay.Host) {
	src := sim.NewSource(seed)
	net := topology.TransitStub(topology.TransitStubConfig{
		Config:   topology.Config{IntraDelay: 5, LinkDelay: 20, Rand: src.Stream("topo")},
		Transits: 2,
		Stubs:    4,
	})
	hosts := topology.PlaceHosts(net, 4, false, 1, 5, src.Stream("place"))
	return net, hosts
}

// sinkRecorder returns a recorder writing to an in-memory run file, and a
// func that closes it and reads the events back.
func sinkRecorder(t *testing.T) (*Recorder, func() []Event) {
	t.Helper()
	var buf bytes.Buffer
	rec := NewRecorder(Config{Sink: NewRunWriter(&buf)})
	return rec, func() []Event {
		t.Helper()
		if err := rec.Close(); err != nil {
			t.Fatal(err)
		}
		run, err := ReadRun(&buf)
		if err != nil {
			t.Fatal(err)
		}
		return run.Events
	}
}

func TestRecorderObserveTransport(t *testing.T) {
	net, hosts := testNet(1)
	k := sim.NewKernel()
	tr := transport.New(net, k)
	rec, events := sinkRecorder(t)
	rec.ObserveTransport(tr)
	rec.ObserveKernel(k)

	tr.Send(hosts[0], hosts[1], 100, "ping")
	tr.Send(hosts[1], hosts[0], 40, "pong")

	evs := events()
	if len(evs) != 2 {
		t.Fatalf("recorded %d events, want 2", len(evs))
	}
	if evs[0].Cat != CatTransport || evs[0].Type != "ping" || evs[0].Bytes != 100 {
		t.Fatalf("bad first event: %+v", evs[0])
	}
	if evs[0].From != int(hosts[0].ID) || evs[0].To != int(hosts[1].ID) {
		t.Fatalf("bad endpoints: %+v", evs[0])
	}
	if evs[0].Latency <= 0 {
		t.Fatalf("expected positive latency, got %v", evs[0].Latency)
	}

	snap := rec.Snapshot()
	if snap.Counters["transport:msgs:ping"] != 1 || snap.Counters["transport:msgs:pong"] != 1 {
		t.Fatalf("counters missing from snapshot: %v", snap.Counters)
	}
	if snap.Counters["transport:bytes:ping"] != 100 {
		t.Fatalf("bytes counter wrong: %v", snap.Counters)
	}
	if h, ok := snap.Histograms["transport:latency:ping"]; !ok || h.N != 1 {
		t.Fatalf("latency histogram missing: %v", snap.Histograms)
	}
}

func TestRecorderChainsExistingTrace(t *testing.T) {
	net, hosts := testNet(1)
	tr := transport.Over(net)
	var prior int
	tr.Trace = func(transport.Event) { prior++ }
	rec := NewRecorder(Config{})
	rec.ObserveTransport(tr)
	tr.Send(hosts[0], hosts[1], 10, "x")
	if prior != 1 {
		t.Fatalf("prior trace observer called %d times, want 1", prior)
	}
	if got := rec.Recorded(); got != 1 {
		t.Fatalf("recorder saw %d events, want 1", got)
	}
}

func TestRecorderObserveChurn(t *testing.T) {
	_, hosts := testNet(3)
	k := sim.NewKernel()
	src := sim.NewSource(3)
	drv := &churn.Driver{
		Kernel: k,
		ModelFor: func(*underlay.Host) churn.Model {
			return churn.Exponential{MeanOn: 2 * sim.Second, MeanOff: 1 * sim.Second}
		},
		Rand: src.Stream("churn"),
	}
	var external int
	drv.Trace = func(*underlay.Host, bool) { external++ }
	rec, events := sinkRecorder(t)
	rec.ObserveChurn(drv)
	rec.ObserveKernel(k)
	drv.Start(hosts)
	k.Run(20 * sim.Second)

	joins, leaves := 0, 0
	for _, e := range events() {
		switch {
		case e.Cat == CatChurn && e.Type == "join":
			joins++
		case e.Cat == CatChurn && e.Type == "leave":
			leaves++
		default:
			t.Fatalf("unexpected event %+v", e)
		}
	}
	if uint64(joins) != drv.Joins || uint64(leaves) != drv.Leaves {
		t.Fatalf("events (%d joins, %d leaves) disagree with driver (%d, %d)",
			joins, leaves, drv.Joins, drv.Leaves)
	}
	if joins+leaves == 0 {
		t.Fatal("no churn happened; test is vacuous")
	}
	if external != joins+leaves {
		t.Fatalf("pre-existing Trace hook called %d times, want %d", external, joins+leaves)
	}
	snap := rec.Snapshot()
	if snap.Counters["churn:joins"] != drv.Joins || snap.Counters["churn:leaves"] != drv.Leaves {
		t.Fatalf("churn counters missing: %v", snap.Counters)
	}
}

// TestRecorderWritesEventsInArrivalOrder drives a transport and a churn
// driver on one kernel: the run file must replay their events in the
// order they happened, transport and churn interleaved, and the summary
// must count every one.
func TestRecorderWritesEventsInArrivalOrder(t *testing.T) {
	net, hosts := testNet(3)
	k := sim.NewKernel()
	tr := transport.New(net, k)
	drv := &churn.Driver{
		Kernel: k,
		ModelFor: func(*underlay.Host) churn.Model {
			return churn.Exponential{MeanOn: 2 * sim.Second, MeanOff: 1 * sim.Second}
		},
		Rand: sim.NewSource(3).Stream("churn"),
	}
	var buf bytes.Buffer
	rec := NewRecorder(Config{Sink: NewRunWriter(&buf), Manifest: Manifest{Name: "order", Seed: 3}})
	rec.ObserveTransport(tr)
	rec.ObserveChurn(drv)
	drv.Start(hosts)
	for i := 1; i <= 40; i++ {
		i := i
		k.Schedule(sim.Duration(i)*sim.Second/2, func() {
			tr.Send(hosts[i%len(hosts)], hosts[(i+1)%len(hosts)], 64, "ping")
		})
	}
	k.Run(20 * sim.Second)
	recorded := rec.Recorded()
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	run, err := ReadRun(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if run.Manifest.Name != "order" || run.Manifest.Seed != 3 {
		t.Fatalf("manifest mangled: %+v", run.Manifest)
	}

	evs := run.Events
	var transports, churns, switches int
	for i, e := range evs {
		if i > 0 && e.At < evs[i-1].At {
			t.Fatalf("event %d (%s at %v) precedes event %d (%s at %v)",
				i, e.Cat, e.At, i-1, evs[i-1].Cat, evs[i-1].At)
		}
		if i > 0 && e.Cat != evs[i-1].Cat {
			switches++
		}
		switch e.Cat {
		case CatTransport:
			transports++
		case CatChurn:
			churns++
		}
	}
	if transports != 40 || uint64(churns) != drv.Joins+drv.Leaves || churns == 0 {
		t.Fatalf("got %d transport and %d churn events; want 40 and %d (>0)",
			transports, churns, drv.Joins+drv.Leaves)
	}
	if switches < 4 {
		t.Fatalf("categories changed %d times across %d events; want them interleaved", switches, len(evs))
	}
	if !run.HasSummary || run.Summary.Events != recorded || uint64(len(evs)) != recorded {
		t.Fatalf("summary counts %d events, file holds %d, recorder saw %d", run.Summary.Events, len(evs), recorded)
	}
}

func TestRecorderObserveMobility(t *testing.T) {
	net, hosts := testNet(4)
	k := sim.NewKernel()
	src := sim.NewSource(4)
	var points []mobility.AttachmentPoint
	for i, as := range net.ASes() {
		if as.Kind != underlay.LocalISP {
			continue
		}
		points = append(points, mobility.AttachmentPoint{
			AS:          as,
			Pos:         geo.Coord{Lat: float64(i), Lon: float64(2 * i)},
			AccessDelay: sim.Duration(5 + i),
		})
	}
	model := mobility.NewModel(k, src.Stream("mob"), points, 2*sim.Second)
	rec, events := sinkRecorder(t)
	rec.ObserveMobility(model)
	model.Attach(hosts[0], 0)
	model.Track(hosts[0])
	k.Run(30 * sim.Second)

	if model.Moves == 0 {
		t.Fatal("no moves happened; test is vacuous")
	}
	evs := events()
	if uint64(len(evs)) != model.Moves {
		t.Fatalf("%d move events, want %d", len(evs), model.Moves)
	}
	for _, e := range evs {
		if e.Cat != CatMobility || e.Type != "move" || !strings.Contains(e.Detail, "→") {
			t.Fatalf("bad move event %+v", e)
		}
	}
	if snap := rec.Snapshot(); snap.Counters["mobility:moves"] != model.Moves {
		t.Fatalf("mobility counter missing: %v", snap.Counters)
	}
}

func TestRecorderCloseIdempotentAndFreezes(t *testing.T) {
	rec := NewRecorder(Config{})
	rec.Record(Event{Cat: "test", Type: "a", From: -1, To: -1})
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	rec.Record(Event{Cat: "test", Type: "b", From: -1, To: -1}) // ignored
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	if got := rec.Summary().Events; got != 1 {
		t.Fatalf("summary events = %d, want 1 (post-close records must be dropped)", got)
	}
}

func TestRegistryUserMetricsInSnapshot(t *testing.T) {
	rec := NewRecorder(Config{})
	rec.Registry().RegisterGauge("app:quality", func() float64 { return 0.75 })
	snap := rec.Snapshot()
	if snap.Gauges["app:quality"] != 0.75 {
		t.Fatalf("user gauge missing: %v", snap.Gauges)
	}
}

func TestRegistryDuplicateNamePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate metric name")
		}
	}()
	r := NewRegistry()
	r.RegisterGauge("x", func() float64 { return 0 })
	r.RegisterGauge("x", func() float64 { return 1 })
}
