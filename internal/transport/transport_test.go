package transport

import (
	"math/rand"
	"testing"

	"unap2p/internal/sim"
	"unap2p/internal/topology"
	"unap2p/internal/underlay"
)

// testNet builds a small hierarchy with hosts placed on every stub AS.
func testNet() *underlay.Network {
	src := sim.NewSource(1)
	net := topology.Star(6, topology.DefaultConfig())
	topology.PlaceHosts(net, 20, false, 1, 5, src.Stream("place"))
	return net
}

// lossy installs a flat loss rate as the transport's Drop hook: one draw
// from r per message, the stream a seeded run shares with nothing else.
func lossy(tr *Transport, p float64, r *rand.Rand) {
	tr.Drop = func(_, _ *underlay.Host) bool { return r.Float64() < p }
}

func TestSendMatchesUnderlay(t *testing.T) {
	net := testNet()
	tr := Over(net)
	hosts := net.Hosts()
	a, b := hosts[0], hosts[len(hosts)/2]
	res := tr.Send(a, b, 500, "data")
	if !res.OK {
		t.Fatal("faultless send reported not OK")
	}
	if want := net.Latency(a, b); res.Latency != want {
		t.Fatalf("latency %v, want underlay latency %v", res.Latency, want)
	}
	if got := tr.Counters().Value("data"); got != 1 {
		t.Fatalf("counter = %d, want 1", got)
	}
	st := tr.StatsFor("data")
	if st.Msgs != 1 || st.Dropped != 0 || st.Bytes != 500 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestRoundTripSumsBothLegs(t *testing.T) {
	net := testNet()
	tr := Over(net)
	hosts := net.Hosts()
	a, b := hosts[1], hosts[7]
	res := tr.RoundTrip(a, b, 100, 200, "req", "resp")
	if !res.OK {
		t.Fatal("round trip failed without faults")
	}
	if want := net.RTT(a, b); res.Latency != want {
		t.Fatalf("round trip latency %v, want RTT %v", res.Latency, want)
	}
	if tr.Counters().Value("req") != 1 || tr.Counters().Value("resp") != 1 {
		t.Fatal("round trip did not count one request and one response")
	}
}

func TestProbeMatchesRTT(t *testing.T) {
	net := testNet()
	tr := Over(net)
	hosts := net.Hosts()
	res := tr.Probe(hosts[0], hosts[9], 40)
	if !res.OK || res.Latency != net.RTT(hosts[0], hosts[9]) {
		t.Fatalf("probe = %+v, want RTT %v", res, net.RTT(hosts[0], hosts[9]))
	}
	if tr.Counters().Value("probe") != 2 {
		t.Fatal("probe should count two messages")
	}
}

// TestDeterminism runs the same traffic twice under the same seed —
// including fault injection — and requires identical outcomes.
func TestDeterminism(t *testing.T) {
	run := func() (drops uint64, total sim.Duration) {
		net := testNet()
		tr := Over(net)
		lossy(tr, 0.2, sim.NewSource(42).Stream("faults"))
		hosts := net.Hosts()
		for i := 0; i < 500; i++ {
			res := tr.Send(hosts[i%len(hosts)], hosts[(i*7+3)%len(hosts)], 100, "x")
			total += res.Latency
		}
		return tr.StatsFor("x").Dropped, total
	}
	d1, l1 := run()
	d2, l2 := run()
	if d1 != d2 || l1 != l2 {
		t.Fatalf("same seed diverged: drops %d vs %d, latency %v vs %v", d1, d2, l1, l2)
	}
	if d1 == 0 {
		t.Fatal("20% loss dropped nothing in 500 sends")
	}
}

func TestLossInjection(t *testing.T) {
	net := testNet()
	tr := Over(net)
	lossy(tr, 0.5, sim.NewSource(7).Stream("faults"))
	hosts := net.Hosts()
	const n = 2000
	for i := 0; i < n; i++ {
		tr.Send(hosts[i%len(hosts)], hosts[(i*11+1)%len(hosts)], 100, "x")
	}
	st := tr.StatsFor("x")
	if st.Msgs != n {
		t.Fatalf("attempts = %d, want %d", st.Msgs, n)
	}
	frac := float64(st.Dropped) / float64(st.Msgs)
	if frac < 0.45 || frac > 0.55 {
		t.Fatalf("drop fraction %.3f far from configured 0.5", frac)
	}
	// Dropped messages charge nothing.
	if st.Bytes != (st.Msgs-st.Dropped)*100 {
		t.Fatalf("bytes %d, want %d", st.Bytes, (st.Msgs-st.Dropped)*100)
	}
}

func TestZeroFaultsDrawNoRandomness(t *testing.T) {
	// A transport with no Drop hook has no RNG to touch, so
	// transport-routed traffic is bit-identical to direct underlay sends.
	net := testNet()
	tr := Over(net)
	hosts := net.Hosts()
	for i := 0; i < 100; i++ {
		if res := tr.Send(hosts[i%len(hosts)], hosts[(i+5)%len(hosts)], 50, "x"); !res.OK {
			t.Fatal("zero-fault transport dropped a message")
		}
	}
}

func TestPerTypeCounters(t *testing.T) {
	net := testNet()
	tr := Over(net)
	hosts := net.Hosts()
	sends := map[string]int{"ping": 7, "pong": 11, "query": 3}
	for kind, n := range sends {
		for i := 0; i < n; i++ {
			tr.Send(hosts[0], hosts[1], 10, kind)
		}
	}
	for kind, n := range sends {
		if got := tr.Counters().Value(kind); got != uint64(n) {
			t.Fatalf("%s = %d, want %d", kind, got, n)
		}
		if st := tr.StatsFor(kind); st.Msgs != uint64(n) || st.Bytes != uint64(n*10) {
			t.Fatalf("%s stats = %+v", kind, st)
		}
	}
	want := []string{"ping", "pong", "query"}
	names := tr.TypeNames()
	if len(names) != len(want) {
		t.Fatalf("type names = %v", names)
	}
	for i, n := range want {
		if names[i] != n {
			t.Fatalf("type names = %v, want %v", names, want)
		}
	}
}

func TestMatrixForSharedAcrossTypes(t *testing.T) {
	net := testNet()
	tr := Over(net)
	hosts := net.Hosts()
	m := tr.MatrixFor("req", "resp")
	if tr.MatrixFor("req") != m {
		t.Fatal("MatrixFor not idempotent")
	}
	tr.RoundTrip(hosts[0], hosts[9], 100, 200, "req", "resp")
	if got := m.Total(); got != 300 {
		t.Fatalf("matrix total = %d, want 300", got)
	}
	// Unregistered types do not touch the matrix.
	tr.Send(hosts[0], hosts[9], 999, "other")
	if got := m.Total(); got != 300 {
		t.Fatalf("matrix total after unrelated send = %d, want 300", got)
	}
}

// TestMatrixForLeavesUnsentTypesUnlisted: registering a matrix for a
// type must not make the type appear anywhere until a message of it is
// sent — run files enumerate Counters/TypeNames/AllStats, and overlays
// register matrices for types many experiments never send.
func TestMatrixForLeavesUnsentTypesUnlisted(t *testing.T) {
	net := testNet()
	tr := Over(net)
	hosts := net.Hosts()
	m := tr.MatrixFor("file", "store")
	if names := tr.TypeNames(); len(names) != 0 {
		t.Fatalf("TypeNames lists unsent types %v", names)
	}
	if snap := tr.Counters().Snapshot(); len(snap) != 0 {
		t.Fatalf("Counters holds unsent types %v", snap)
	}
	if st := tr.StatsFor("file"); st.Latency != nil || st.Msgs != 0 {
		t.Fatalf("StatsFor of an unsent type = %+v, want the zero Stats", st)
	}
	if got := tr.TrafficMatrices(); len(got) != 1 || got["file+store"] != m {
		t.Fatalf("TrafficMatrices = %v, want the one file+store matrix", got)
	}
	tr.Send(hosts[0], hosts[9], 40, "store")
	if names := tr.TypeNames(); len(names) != 1 || names[0] != "store" {
		t.Fatalf("TypeNames after one send = %v, want [store]", names)
	}
	if got := tr.Counters().Value("store"); got != 1 || m.Total() != 40 {
		t.Fatalf("store counter %d, matrix total %d; want 1 and 40", got, m.Total())
	}
}

func TestIntraByteAccounting(t *testing.T) {
	net := testNet()
	tr := Over(net)
	hosts := net.Hosts()
	var intra, inter *underlay.Host
	for _, h := range hosts[1:] {
		if h.AS.ID == hosts[0].AS.ID && intra == nil {
			intra = h
		}
		if h.AS.ID != hosts[0].AS.ID && inter == nil {
			inter = h
		}
	}
	if intra == nil || inter == nil {
		t.Skip("topology lacks an intra/inter pair")
	}
	tr.Send(hosts[0], intra, 100, "x")
	tr.Send(hosts[0], inter, 300, "x")
	st := tr.StatsFor("x")
	if st.IntraBytes != 100 || st.Bytes != 400 {
		t.Fatalf("intra %d of %d bytes, want 100 of 400", st.IntraBytes, st.Bytes)
	}
}

func TestRoundTripRetries(t *testing.T) {
	net := testNet()
	tr := Over(net)
	// Drop everything: with N retries the transport makes exactly N+1
	// request attempts and then gives up.
	lossy(tr, 1, sim.NewSource(3).Stream("faults"))
	tr.Retry = RetryPolicy{Budget: 2}
	hosts := net.Hosts()
	res := tr.RoundTrip(hosts[0], hosts[5], 100, 100, "req", "resp")
	if res.OK {
		t.Fatal("round trip succeeded under total loss")
	}
	if got := tr.Counters().Value("req"); got != 3 {
		t.Fatalf("request attempts = %d, want 3 (1 + 2 retries)", got)
	}
	if tr.Counters().Value("resp") != 0 {
		t.Fatal("responses sent despite lost requests")
	}
}

func TestDeliverSchedulesOnKernel(t *testing.T) {
	net := testNet()
	k := sim.NewKernel()
	tr := New(net, k)
	hosts := net.Hosts()
	fired := false
	if !tr.Deliver(hosts[0], hosts[4], 100, "msg", func() { fired = true }) {
		t.Fatal("faultless Deliver reported drop")
	}
	if fired {
		t.Fatal("callback ran before the kernel")
	}
	k.Drain()
	if !fired {
		t.Fatal("callback never delivered")
	}
	// A dropped message never fires its callback.
	lossy(tr, 1, sim.NewSource(9).Stream("faults"))
	if tr.Deliver(hosts[0], hosts[4], 100, "msg", func() { t.Fatal("dropped message delivered") }) {
		t.Fatal("Deliver reported scheduling under total loss")
	}
	k.Drain()
}

func TestTraceSeesDropsAndDeliveries(t *testing.T) {
	net := testNet()
	k := sim.NewKernel()
	tr := New(net, k)
	lossy(tr, 0.5, sim.NewSource(5).Stream("faults"))
	var events, drops int
	tr.Trace = func(e Event) {
		events++
		if e.At != k.Now() || e.At != sim.Time(events) {
			t.Fatalf("event %d stamped At=%v at kernel time %v", events, e.At, k.Now())
		}
		if e.Dropped {
			drops++
			if e.Latency != 0 {
				t.Fatal("dropped event carries a latency")
			}
		} else if e.Latency <= 0 {
			t.Fatalf("delivered event has latency %v", e.Latency)
		}
	}
	hosts := net.Hosts()
	for i := 0; i < 200; i++ {
		i := i
		k.Schedule(sim.Duration(i+1), func() {
			tr.Send(hosts[i%len(hosts)], hosts[(i+3)%len(hosts)], 10, "x")
		})
	}
	k.Drain()
	if events != 200 {
		t.Fatalf("trace saw %d events, want 200", events)
	}
	if uint64(drops) != tr.StatsFor("x").Dropped {
		t.Fatalf("trace drops %d != stats drops %d", drops, tr.StatsFor("x").Dropped)
	}
}

func TestLatencyHistogramRecorded(t *testing.T) {
	net := testNet()
	tr := Over(net)
	hosts := net.Hosts()
	for i := 0; i < 50; i++ {
		tr.Send(hosts[i%len(hosts)], hosts[(i*3+1)%len(hosts)], 10, "x")
	}
	h := tr.StatsFor("x").Latency
	if h == nil || h.N() != 50 {
		t.Fatalf("histogram missing or wrong count: %v", h)
	}
	if h.Mean() <= 0 {
		t.Fatal("histogram mean not positive")
	}
}

func TestNewPanicsOnNilUnderlay(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(nil, nil)
}
