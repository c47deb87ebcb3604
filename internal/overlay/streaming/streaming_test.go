package streaming

import (
	"testing"

	"unap2p/internal/core"
	"unap2p/internal/resources"
	"unap2p/internal/sim"
	"unap2p/internal/topology"
	"unap2p/internal/transport"
	"unap2p/internal/underlay"
)

func buildMesh(t testing.TB, aware bool, seed int64) (*underlay.Network, *Mesh) {
	t.Helper()
	src := sim.NewSource(seed)
	net := topology.TransitStub(topology.TransitStubConfig{
		Config:   topology.Config{IntraDelay: 5, LinkDelay: 20, Rand: src.Stream("topo")},
		Transits: 2, Stubs: 6,
	})
	topology.PlaceHosts(net, 12, false, 1, 5, src.Stream("place"))
	table := resources.GenerateAll(net, src.Stream("res"))
	sel := &core.ResourceSelector{Table: table, WeightParents: aware}
	m := NewMesh(transport.Over(net), sel, net.Hosts()[0], src.Stream("mesh"))
	for _, h := range net.Hosts()[1:] {
		m.AddViewer(h)
	}
	m.AssignParents()
	return net, m
}

func TestStreamDelivers(t *testing.T) {
	_, m := buildMesh(t, false, 1)
	m.Run(200)
	c := m.Continuity()
	if c <= 0.3 {
		t.Fatalf("continuity %.3f too low — stream never flowed", c)
	}
	if m.ChunkTraffic.Total() == 0 {
		t.Fatal("no chunk traffic accounted")
	}
}

func TestAwareParentsImproveContinuity(t *testing.T) {
	_, random := buildMesh(t, false, 2)
	_, aware := buildMesh(t, true, 2)
	random.Run(250)
	aware.Run(250)
	if aware.ParentCapacityMean() <= random.ParentCapacityMean() {
		t.Fatal("aware assignment did not raise parent capacity")
	}
	if aware.Continuity() <= random.Continuity() {
		t.Fatalf("aware continuity %.3f not above random %.3f",
			aware.Continuity(), random.Continuity())
	}
}

func TestPlayoutAccounting(t *testing.T) {
	_, m := buildMesh(t, true, 3)
	m.Run(100)
	for _, p := range m.Peers() {
		total := p.Played + p.Missed
		want := 100 - startupDelay
		if total != want {
			t.Fatalf("peer %d scored %d playouts, want %d", p.Host.ID, total, want)
		}
	}
}

func TestOfflineViewersSkipPlayout(t *testing.T) {
	net, m := buildMesh(t, false, 4)
	dead := net.Hosts()[5]
	dead.Up = false
	m.Run(100)
	for _, p := range m.Peers() {
		if p.Host.ID == dead.ID && p.Played+p.Missed != 0 {
			t.Fatal("offline viewer scored playouts")
		}
	}
}

func TestValidation(t *testing.T) {
	net, m := buildMesh(t, false, 5)
	cases := []func(){
		func() { m.AddViewer(net.Hosts()[0]) }, // source
		func() { m.AddViewer(net.Hosts()[1]) }, // duplicate
		func() { NewMesh(nil, nil, nil, nil) }, // no selector
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d: expected panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestWorstContinuityBounded(t *testing.T) {
	_, m := buildMesh(t, true, 6)
	m.Run(200)
	w := m.WorstContinuity()
	c := m.Continuity()
	if w > c+1e-9 {
		t.Fatalf("worst %.3f above mean %.3f", w, c)
	}
	if w < 0 || w > 1 {
		t.Fatalf("worst continuity out of range: %v", w)
	}
}

// BenchmarkStreamTick measures one pull/playout round for 71 viewers.
func BenchmarkStreamTick(b *testing.B) {
	_, m := buildMesh(b, true, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Tick()
	}
}
