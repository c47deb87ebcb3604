package resilience

import (
	"reflect"
	"testing"

	"unap2p/internal/sim"
	"unap2p/internal/topology"
	"unap2p/internal/transport"
	"unap2p/internal/underlay"
)

func testWorld(seed int64) (*underlay.Network, []*underlay.Host, *sim.Source, *sim.Kernel, *transport.Transport) {
	src := sim.NewSource(seed)
	net := topology.TransitStub(topology.TransitStubConfig{
		Config:   topology.Config{IntraDelay: 5, LinkDelay: 20, Rand: src.Stream("topo")},
		Transits: 2, Stubs: 6,
	})
	hosts := topology.PlaceHosts(net, 4, false, 1, 5, src.Stream("place"))
	k := sim.NewKernel()
	return net, hosts, src, k, transport.New(net, k)
}

// recorder captures verdicts in arrival order.
type recorder struct {
	suspects, evicts, recovers []underlay.HostID
}

func (r *recorder) wire(d *Detector) {
	d.OnSuspect = func(id underlay.HostID) { r.suspects = append(r.suspects, id) }
	d.OnEvict = func(id underlay.HostID) { r.evicts = append(r.evicts, id) }
	d.OnRecover = func(id underlay.HostID) { r.recovers = append(r.recovers, id) }
}

// TestDetectorEvictsCrashedPeer walks the full escalation: a crashed
// peer misses SuspectAfter pings → Suspect, then EvictAfter → Evict
// exactly once, the watch dies with the verdict, and the counters and
// ping traffic account for every step.
func TestDetectorEvictsCrashedPeer(t *testing.T) {
	_, hosts, _, k, tr := testWorld(1)
	cfg := DefaultConfig()
	cfg.Backoff.Jitter = 0 // flat, predictable schedule for this test
	d := New(tr, k, cfg)
	var rec recorder
	rec.wire(d)

	vantage, target := hosts[0], hosts[5]
	d.Watch(vantage, target)
	target.Up = false

	k.Run(30 * sim.Second)
	if len(rec.suspects) != 1 || rec.suspects[0] != target.ID {
		t.Fatalf("suspects = %v, want exactly [%d]", rec.suspects, target.ID)
	}
	if len(rec.evicts) != 1 || rec.evicts[0] != target.ID {
		t.Fatalf("evicts = %v, want exactly [%d]", rec.evicts, target.ID)
	}
	if d.Watching() != 0 {
		t.Fatalf("watch survived eviction: %d live", d.Watching())
	}
	if got := d.Evicted(); len(got) != 1 || got[0] != target.ID {
		t.Fatalf("Evicted() = %v", got)
	}
	if d.Counters().Value("ping") != uint64(cfg.EvictAfter) {
		t.Fatalf("pings = %d, want %d (detector must stop at eviction)",
			d.Counters().Value("ping"), cfg.EvictAfter)
	}
	// Failure-detection traffic is real: the request legs were charged.
	if st := tr.StatsFor("fd_ping"); st.Msgs != uint64(cfg.EvictAfter) {
		t.Fatalf("fd_ping msgs = %d, want %d", st.Msgs, cfg.EvictAfter)
	}
}

// TestDetectorRecantsSuspicion crashes a peer long enough to be
// suspected but not evicted, then revives it: the detector must recover
// the peer and never evict.
func TestDetectorRecantsSuspicion(t *testing.T) {
	_, hosts, _, k, tr := testWorld(2)
	cfg := DefaultConfig()
	cfg.Backoff.Jitter = 0
	d := New(tr, k, cfg)
	var rec recorder
	rec.wire(d)

	vantage, target := hosts[0], hosts[7]
	d.Watch(vantage, target)
	// Crash at t=0; the peer misses pings at 500 and 500+250 (backoff),
	// is suspected at the second miss, and revives before the third.
	target.Up = false
	k.Schedule(900, func() { target.Up = true })

	k.Run(30 * sim.Second)
	if len(rec.suspects) != 1 {
		t.Fatalf("suspects = %v, want one suspicion", rec.suspects)
	}
	if len(rec.evicts) != 0 {
		t.Fatalf("revived peer evicted: %v", rec.evicts)
	}
	if len(rec.recovers) != 1 || rec.recovers[0] != target.ID {
		t.Fatalf("recovers = %v, want [%d]", rec.recovers, target.ID)
	}
	if len(d.Suspected()) != 0 {
		t.Fatalf("suspicion not cleared: %v", d.Suspected())
	}
	if d.Watching() != 1 {
		t.Fatalf("watch lost after recovery: %d live", d.Watching())
	}
	if d.Counters().Value("recover") != 1 {
		t.Fatalf("recover counter = %d, want 1", d.Counters().Value("recover"))
	}
}

// TestDetectorOfflineVantage pins the no-verdict rule: a watch whose
// vantage is down neither pings nor accumulates failures.
func TestDetectorOfflineVantage(t *testing.T) {
	_, hosts, _, k, tr := testWorld(3)
	d := New(tr, k, DefaultConfig())
	var rec recorder
	rec.wire(d)
	vantage, target := hosts[1], hosts[9]
	vantage.Up = false
	d.Watch(vantage, target)
	k.Run(20 * sim.Second)
	if got := d.Counters().Value("ping"); got != 0 {
		t.Fatalf("offline vantage sent %d pings", got)
	}
	if len(rec.suspects)+len(rec.evicts) != 0 {
		t.Fatalf("offline vantage produced verdicts: s=%v e=%v", rec.suspects, rec.evicts)
	}
}

// TestDetectorUnwatchStopsPings verifies Unwatch cancels the timer chain.
func TestDetectorUnwatchStopsPings(t *testing.T) {
	_, hosts, _, k, tr := testWorld(4)
	d := New(tr, k, DefaultConfig())
	d.Watch(hosts[0], hosts[3])
	k.Run(2 * sim.Second)
	before := d.Counters().Value("ping")
	if before == 0 {
		t.Fatal("watch never pinged")
	}
	d.Unwatch(hosts[3].ID)
	k.Run(10 * sim.Second)
	if got := d.Counters().Value("ping"); got != before {
		t.Fatalf("pings after Unwatch: %d → %d", before, got)
	}
}

// TestDetectorDrainTerminates pins the daemon-timer contract: a detector
// with live watches must not keep an unbounded Drain alive.
func TestDetectorDrainTerminates(t *testing.T) {
	_, hosts, _, k, tr := testWorld(5)
	d := New(tr, k, DefaultConfig())
	for _, h := range hosts[1:6] {
		d.Watch(hosts[0], h)
	}
	k.Drain() // would hang forever if pings were non-daemon events
	if d.Watching() != 5 {
		t.Fatalf("watches = %d, want 5", d.Watching())
	}
}

// TestHealChains verifies Heal composes with pre-registered observers.
type fakeHealer struct {
	suspected, evicted []underlay.HostID
}

func (f *fakeHealer) Suspect(id underlay.HostID) { f.suspected = append(f.suspected, id) }
func (f *fakeHealer) Evict(id underlay.HostID)   { f.evicted = append(f.evicted, id) }

func TestHealChains(t *testing.T) {
	_, hosts, _, k, tr := testWorld(6)
	cfg := DefaultConfig()
	cfg.Backoff.Jitter = 0
	d := New(tr, k, cfg)
	var rec recorder
	rec.wire(d)
	h := &fakeHealer{}
	d.Heal(h)

	target := hosts[4]
	target.Up = false
	d.Watch(hosts[0], target)
	k.Run(30 * sim.Second)
	if len(rec.evicts) != 1 || len(h.evicted) != 1 {
		t.Fatalf("observer evicts %v, healer evicts %v — both must fire", rec.evicts, h.evicted)
	}
	if len(h.suspected) != 1 {
		t.Fatalf("healer suspicion not delivered: %v", h.suspected)
	}
}

// TestLedgerMarksOnce pins the ledger every Healer shares: the zero
// value is usable, MarkEvicted reports only the first verdict per peer,
// Suspect records nothing, and Evicted is sorted.
func TestLedgerMarksOnce(t *testing.T) {
	var l Ledger
	if l.IsEvicted(3) || len(l.Evicted()) != 0 {
		t.Fatal("zero ledger is not empty")
	}
	l.Suspect(9)
	for _, id := range []underlay.HostID{7, 3, 5} {
		if !l.MarkEvicted(id) {
			t.Fatalf("first MarkEvicted(%d) reported a repeat", id)
		}
	}
	if l.MarkEvicted(3) {
		t.Fatal("second MarkEvicted(3) reported a first verdict")
	}
	if got := l.Evicted(); !reflect.DeepEqual(got, []underlay.HostID{3, 5, 7}) {
		t.Fatalf("Evicted() = %v, want [3 5 7]", got)
	}
	if l.IsEvicted(9) {
		t.Fatal("Suspect evicted a peer")
	}
}

// fakePinger answers pings from a script instead of a transport — the
// detector needs nothing else from its message plane.
type fakePinger struct{ alive map[underlay.HostID]bool }

func (f fakePinger) RoundTripWith(_ transport.RetryPolicy, _, to *underlay.Host,
	_, _ uint64, _, _ string) transport.Result {
	return transport.Result{OK: f.alive[to.ID]}
}

// TestDetectorOverBarePinger drives the detector with a one-method fake
// and hand-made hosts, the shape the real-socket plane supplies.
func TestDetectorOverBarePinger(t *testing.T) {
	k := sim.NewKernel()
	cfg := DefaultConfig()
	cfg.Backoff = Backoff{}
	d := New(fakePinger{alive: map[underlay.HostID]bool{2: true}}, k, cfg)
	var rec recorder
	rec.wire(d)
	self := &underlay.Host{ID: 1, Up: true}
	d.Watch(self, &underlay.Host{ID: 2, Up: true})
	d.Watch(self, &underlay.Host{ID: 3, Up: true})
	k.Run(10 * sim.Second)
	if !reflect.DeepEqual(d.Evicted(), []underlay.HostID{3}) || len(rec.evicts) != 1 {
		t.Fatalf("evicted %v (callbacks %v), want exactly [3]", d.Evicted(), rec.evicts)
	}
	if d.Watching() != 1 {
		t.Fatalf("%d live watches, want 1 (the answering peer)", d.Watching())
	}
}
