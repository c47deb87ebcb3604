package chaos

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"unap2p/internal/sim"
	"unap2p/internal/topology"
	"unap2p/internal/transport"
	"unap2p/internal/underlay"
)

func testWorld(seed int64) (*underlay.Network, []*underlay.Host, *sim.Kernel, *transport.Transport, *sim.Source) {
	src := sim.NewSource(seed)
	net := topology.TransitStub(topology.TransitStubConfig{
		Config:   topology.Config{IntraDelay: 5, LinkDelay: 20, Rand: src.Stream("topo")},
		Transits: 2, Stubs: 6,
	})
	hosts := topology.PlaceHosts(net, 4, false, 1, 5, src.Stream("place"))
	k := sim.NewKernel()
	tr := transport.New(net, k)
	return net, hosts, k, tr, src
}

func TestParseFormatRoundTrip(t *testing.T) {
	text := `
# campaign: split two stubs, then a correlated burst, then a wave
partition 1000 2500 as=3,5
loss 500 900 rate=0.35 as=4
loss 100 200 rate=0.1
crash 1500 n=3 revive=3000
crash 4000 n=1
`
	s, err := Parse(text)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if len(s.Windows) != 5 {
		t.Fatalf("parsed %d windows, want 5", len(s.Windows))
	}
	out := Format(s)
	s2, err := Parse(out)
	if err != nil {
		t.Fatalf("re-parse of %q: %v", out, err)
	}
	if !reflect.DeepEqual(s, s2) {
		t.Fatalf("round trip changed the schedule:\n%#v\n%#v", s, s2)
	}
	if w := s.Windows[0]; w.Kind != ASPartition || !reflect.DeepEqual(w.ASes, []int{3, 5}) {
		t.Fatalf("partition window parsed wrong: %#v", w)
	}
	if w := s.Windows[3]; w.Kind != CrashWave || !w.Revive || w.End != 3000 {
		t.Fatalf("revive wave parsed wrong: %#v", w)
	}
}

func TestParseErrors(t *testing.T) {
	cases := map[string]string{
		"unknown verb":      "explode 1 2",
		"partition no cut":  "partition 1 2",
		"partition bad as":  "partition 1 2 as=x",
		"partition neg":     "partition -1 2 as=1",
		"inverted interval": "partition 10 5 as=1",
		"loss no rate":      "loss 1 2 as=1",
		"loss rate high":    "loss 1 2 rate=1.5",
		"loss rate nan":     "loss 1 2 rate=NaN",
		"time inf":          "loss 1 Inf rate=0.5",
		"crash no n":        "crash 5",
		"crash zero":        "crash 5 n=0",
		"crash bad revive":  "crash 5 n=1 revive=x",
		"bad option":        "crash 5 n=1 bogus",
	}
	for name, text := range cases {
		if _, err := Parse(text); err == nil {
			t.Errorf("%s: Parse(%q) accepted malformed input", name, text)
		}
	}
}

func TestGenerateDeterministicAndValid(t *testing.T) {
	cfg := GenConfig{
		Horizon:    60 * sim.Second,
		ASes:       []int{2, 3, 4, 5, 6, 7},
		Partitions: 2, Bursts: 3, Waves: 2,
	}
	a := Generate(rand.New(rand.NewSource(42)), cfg)
	b := Generate(rand.New(rand.NewSource(42)), cfg)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different schedules")
	}
	if err := a.Validate(); err != nil {
		t.Fatalf("generated schedule invalid: %v", err)
	}
	if len(a.Windows) != 7 {
		t.Fatalf("generated %d windows, want 7", len(a.Windows))
	}
	// Round-trips through the line format too.
	s2, err := Parse(Format(a))
	if err != nil {
		t.Fatalf("generated schedule does not parse: %v", err)
	}
	if !reflect.DeepEqual(a, s2) {
		t.Fatal("generated schedule does not round-trip")
	}
	c := Generate(rand.New(rand.NewSource(43)), cfg)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical schedules")
	}
}

func TestInjectorPartition(t *testing.T) {
	_, hosts, k, tr, _ := testWorld(7)
	inside := hosts[0]
	cut := inside.AS.ID
	var peerInCut, outside *underlay.Host
	for _, h := range hosts[1:] {
		if h.AS.ID == cut && peerInCut == nil {
			peerInCut = h
		}
		if h.AS.ID != cut && outside == nil {
			outside = h
		}
	}
	if peerInCut == nil || outside == nil {
		t.Fatal("world too small for the scenario")
	}
	sched := Schedule{Windows: []Window{
		{Kind: ASPartition, Start: 100, End: 200, ASes: []int{cut}},
	}}
	inj := NewInjector(k, tr, sched, nil)
	if err := inj.Arm(); err != nil {
		t.Fatalf("arm: %v", err)
	}
	type probe struct {
		at       sim.Time
		from, to *underlay.Host
		wantOK   bool
	}
	probes := []probe{
		{50, inside, outside, true},    // before the window
		{150, inside, outside, false},  // across the cut
		{150, outside, inside, false},  // across, reverse direction
		{150, inside, peerInCut, true}, // inside the cut still flows
		{250, inside, outside, true},   // after the window
	}
	for i := range probes {
		p := &probes[i]
		k.At(p.at, func() {
			if got := tr.Send(p.from, p.to, 64, "probe").OK; got != p.wantOK {
				t.Errorf("t=%v %d→%d: OK=%v, want %v",
					p.at, p.from.ID, p.to.ID, got, p.wantOK)
			}
		})
	}
	k.Drain()
}

func TestInjectorLossBurst(t *testing.T) {
	_, hosts, k, tr, src := testWorld(8)
	a, b := hosts[0], hosts[len(hosts)-1]
	sched := Schedule{Windows: []Window{
		{Kind: LossBurst, Start: 100, End: 200, Loss: 1.0},
	}}
	inj := NewInjector(k, tr, sched, src.Stream("chaos"))
	if err := inj.Arm(); err != nil {
		t.Fatalf("arm: %v", err)
	}
	k.At(150, func() {
		if tr.Send(a, b, 64, "probe").OK {
			t.Error("send survived a rate-1.0 loss burst")
		}
	})
	k.At(250, func() {
		if !tr.Send(a, b, 64, "probe").OK {
			t.Error("send dropped outside the burst window")
		}
	})
	k.Drain()
}

// countingSource counts the draws taken from the source it wraps.
type countingSource struct {
	rand.Source
	n int
}

func (c *countingSource) Int63() int64 { c.n++; return c.Source.Int63() }

// TestDropHookChains pins the order Arm chains in: a hook already on the
// transport runs first, and when it drops, the injector's hook is not
// consulted — its stream does not advance, so arming a schedule over a
// lossy transport perturbs neither stream.
func TestDropHookChains(t *testing.T) {
	_, hosts, k, tr, _ := testWorld(9)
	a, b := hosts[0], hosts[len(hosts)-1]
	calls, firstDrops := 0, true
	tr.Drop = func(_, _ *underlay.Host) bool { calls++; return firstDrops }
	draws := &countingSource{Source: rand.NewSource(1)}
	sched := Schedule{Windows: []Window{
		{Kind: LossBurst, Start: 100, End: 200, Loss: 0.5},
	}}
	if err := NewInjector(k, tr, sched, rand.New(draws)).Arm(); err != nil {
		t.Fatalf("arm: %v", err)
	}
	k.At(150, func() {
		if tr.Send(a, b, 64, "probe").OK {
			t.Error("send survived the pre-existing hook's drop")
		}
		if calls != 1 || draws.n != 0 {
			t.Errorf("first hook dropped: %d calls, %d injector draws, want 1 and 0", calls, draws.n)
		}
		firstDrops = false
		tr.Send(a, b, 64, "probe")
		if calls != 2 || draws.n != 1 {
			t.Errorf("first hook passed: %d calls, %d injector draws, want 2 and 1", calls, draws.n)
		}
	})
	k.Drain()
}

func TestInjectorCrashWave(t *testing.T) {
	_, hosts, k, tr, src := testWorld(9)
	sched := Schedule{Windows: []Window{
		{Kind: CrashWave, Start: 100, End: 300, Crash: 3, Revive: true},
	}}
	inj := NewInjector(k, tr, sched, src.Stream("chaos"))
	inj.Eligible = hosts
	var crashedOrder, revivedOrder []underlay.HostID
	inj.OnCrash = func(h *underlay.Host) { crashedOrder = append(crashedOrder, h.ID) }
	inj.OnRevive = func(h *underlay.Host) { revivedOrder = append(revivedOrder, h.ID) }
	if err := inj.Arm(); err != nil {
		t.Fatalf("arm: %v", err)
	}
	k.Run(200)
	if got := inj.Crashed(); len(got) != 3 {
		t.Fatalf("crashed %v, want 3 victims", got)
	}
	down := 0
	for _, h := range hosts {
		if !h.Up {
			down++
		}
	}
	if down != 3 {
		t.Fatalf("%d hosts down, want 3", down)
	}
	k.Run(400)
	if got := inj.Crashed(); len(got) != 0 {
		t.Fatalf("still crashed after revive: %v", got)
	}
	for _, h := range hosts {
		if !h.Up {
			t.Fatalf("host %d still down after revive", h.ID)
		}
	}
	if !reflect.DeepEqual(crashedOrder, revivedOrder) {
		t.Fatalf("revive order %v != crash order %v", revivedOrder, crashedOrder)
	}
	for i := 1; i < len(crashedOrder); i++ {
		if crashedOrder[i-1] >= crashedOrder[i] {
			t.Fatalf("crash callbacks not in ascending id order: %v", crashedOrder)
		}
	}
	// Same seed, same victims.
	_, hosts2, k2, tr2, src2 := testWorld(9)
	inj2 := NewInjector(k2, tr2, sched, src2.Stream("chaos"))
	inj2.Eligible = hosts2
	var order2 []underlay.HostID
	inj2.OnCrash = func(h *underlay.Host) { order2 = append(order2, h.ID) }
	if err := inj2.Arm(); err != nil {
		t.Fatalf("arm: %v", err)
	}
	k2.Run(200)
	if !reflect.DeepEqual(crashedOrder, order2) {
		t.Fatalf("victim choice not deterministic: %v vs %v", crashedOrder, order2)
	}
}

// fakeSubject lets checker tests pin exact ref/evicted sets.
type fakeSubject struct {
	refs, evicted []underlay.HostID
}

func (f fakeSubject) Refs() []underlay.HostID    { return f.refs }
func (f fakeSubject) Evicted() []underlay.HostID { return f.evicted }

func TestCheckReport(t *testing.T) {
	clean := Check("clean", fakeSubject{
		refs:    []underlay.HostID{1, 2, 3},
		evicted: []underlay.HostID{9},
	})
	if !clean.Ok() || clean.Err() != nil {
		t.Fatalf("clean subject reported violations: %v", clean.Err())
	}
	dirty := Check("dirty", fakeSubject{
		refs:    []underlay.HostID{1, 2, 9},
		evicted: []underlay.HostID{9},
	})
	if dirty.Ok() {
		t.Fatal("dead ref not detected")
	}
	if err := dirty.Err(); err == nil || !strings.Contains(err.Error(), "evicted peer 9") {
		t.Fatalf("unhelpful violation: %v", err)
	}

	r := &Report{Name: "bounds"}
	r.SizeBounds("bucket", []int{3, 4, 5}, 1, 8)
	r.SuccessFloor("lookup", 9, 10, 0.8)
	r.Reconverged("success_rate", 0.95, 0.93, 0.05)
	if !r.Ok() {
		t.Fatalf("in-bounds metrics flagged: %v", r.Err())
	}
	r.SizeBounds("bucket", []int{0}, 1, 8)
	r.SuccessFloor("lookup", 1, 10, 0.8)
	r.Reconverged("success_rate", 0.95, 0.5, 0.05)
	if len(r.Violations) != 3 {
		t.Fatalf("want 3 violations, got %v", r.Violations)
	}
}
