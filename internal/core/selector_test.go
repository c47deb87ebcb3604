package core

import (
	"testing"
	"testing/quick"

	"unap2p/internal/geo"
	"unap2p/internal/resources"
	"unap2p/internal/sim"
	"unap2p/internal/underlay"
)

// constSelector ranks with a constant cost, so every candidate ties.
func constSelector(net *underlay.Network) *EngineSelector {
	return FuncSelector(net, Latency, ExplicitMeasurement,
		func(_, _ *underlay.Host) (float64, bool) { return 1, true })
}

// Property: with a constant-cost estimator every candidate ties, and
// ranking must preserve the input order (stable sort) for any permutation.
func TestQuickRankStableUnderTies(t *testing.T) {
	net := buildNet(t)
	sel := constSelector(net)
	hosts := net.Hosts()
	client := hosts[0]
	prop := func(picks []uint8) bool {
		var cands []underlay.HostID
		for _, p := range picks {
			h := hosts[1+int(p)%(len(hosts)-1)]
			cands = append(cands, h.ID)
		}
		ranked, ok := sel.Rank(client, cands)
		if !ok || len(ranked) != len(cands) {
			return false
		}
		for i := range cands {
			if ranked[i] != cands[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNoPreferenceAnswersNothing(t *testing.T) {
	var s Selector = NoPreference{}
	if _, ok := s.Rank(nil, nil); ok {
		t.Fatal("Rank answered")
	}
	if _, ok := s.SelectSource(nil, nil); ok {
		t.Fatal("SelectSource answered")
	}
	if _, ok := s.ElectSuperPeer(nil); ok {
		t.Fatal("ElectSuperPeer answered")
	}
	if _, ok := s.Proximity(nil, nil); ok {
		t.Fatal("Proximity answered")
	}
	if _, ok := s.Bandwidth(nil); ok {
		t.Fatal("Bandwidth answered")
	}
	if _, ok := s.Weight(nil); ok {
		t.Fatal("Weight answered")
	}
	if _, ok := s.Position(nil); ok {
		t.Fatal("Position answered")
	}
}

func TestEngineSelectorVerbs(t *testing.T) {
	net := buildNet(t)
	sel := RTTSelector(net)
	client := net.Hosts()[0]
	var holders []underlay.HostID
	for _, h := range net.Hosts()[1:8] {
		holders = append(holders, h.ID)
	}
	if _, ok := sel.SelectSource(client, nil); ok {
		t.Fatal("empty holders must have no source")
	}
	best, ok := sel.SelectSource(client, holders)
	if !ok {
		t.Fatal("source selection must answer")
	}
	for _, id := range holders {
		if net.RTT(client, net.Host(id)) < net.RTT(client, net.Host(best)) {
			t.Fatalf("holder %d closer than selected source %d", id, best)
		}
	}
	cost, ok := sel.Proximity(client, net.Host(holders[0]))
	if !ok || cost != float64(net.RTT(client, net.Host(holders[0]))) {
		t.Fatalf("proximity = %v,%v", cost, ok)
	}
	if sel.E.TotalOverhead() == 0 {
		t.Fatal("engine overhead must aggregate estimator evaluations")
	}
	// Verbs the engine doesn't cover stay unanswered.
	if _, ok := sel.Position(client); ok {
		t.Fatal("engine selector should not answer Position")
	}
}

func TestEngineSelectorPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on nil engine")
		}
	}()
	NewEngineSelector(nil, nil)
}

func TestOracleSelectorGates(t *testing.T) {
	net := buildNet(t)
	client := net.HostsInAS(1)[0]
	var cands []underlay.HostID
	for _, h := range net.Hosts()[:10] {
		if h.ID != client.ID {
			cands = append(cands, h.ID)
		}
	}
	joinOnly := NewOracleSelector(net, true, false)
	if _, ok := joinOnly.Rank(client, cands); !ok {
		t.Fatal("join-enabled selector must rank")
	}
	if _, ok := joinOnly.SelectSource(client, cands); ok {
		t.Fatal("source verb must stay gated off")
	}
	if joinOnly.O.Queries == 0 {
		t.Fatal("oracle queries must count as overhead")
	}
	srcOnly := NewOracleSelector(net, false, true)
	if _, ok := srcOnly.Rank(client, cands); ok {
		t.Fatal("join verb must stay gated off")
	}
	if best, ok := srcOnly.SelectSource(client, cands); !ok || net.Host(best) == nil {
		t.Fatalf("source selection = %v,%v", best, ok)
	}
}

func TestResourceSelectorVerbs(t *testing.T) {
	net := buildNet(t)
	tab := resources.GenerateAll(net, sim.NewSource(8).Stream("res"))
	sel := &ResourceSelector{Table: tab}
	h := net.Hosts()[0]
	if c, ok := sel.Capability(h); !ok || c != tab.Get(h.ID).Score() {
		t.Fatalf("capability = %v,%v", c, ok)
	}
	if b, ok := sel.Bandwidth(h); !ok || b != tab.Get(h.ID).UpKbps {
		t.Fatalf("bandwidth = %v,%v", b, ok)
	}
	if _, ok := sel.Weight(h); ok {
		t.Fatal("Weight must stay off without WeightParents")
	}
	sel.WeightParents = true
	if w, ok := sel.Weight(h); !ok || w != tab.Get(h.ID).UpKbps {
		t.Fatalf("weight = %v,%v", w, ok)
	}
	if _, ok := sel.ElectSuperPeer(nil); ok {
		t.Fatal("empty group must not elect")
	}
	group := net.Hosts()[:12]
	super, ok := sel.ElectSuperPeer(group)
	if !ok {
		t.Fatal("election must answer")
	}
	for _, h := range group {
		if tab.Get(h.ID).Score() > tab.Get(super.ID).Score() {
			t.Fatalf("host %d outscores elected super-peer %d", h.ID, super.ID)
		}
	}
}

func TestGeoSelectorPosition(t *testing.T) {
	net := buildNet(t)
	h := net.Hosts()[3]
	c, ok := GeoSelector{}.Position(h)
	if !ok || c != (geo.Coord{Lat: h.Lat, Lon: h.Lon}) {
		t.Fatalf("position = %v,%v", c, ok)
	}
}

func TestStockSelectors(t *testing.T) {
	net := buildNet(t)
	a := net.HostsInAS(1)[0]
	b := net.HostsInAS(1)[1]
	far := net.HostsInAS(3)[0]

	if c, ok := ASHopSelector(net).Proximity(a, b); !ok || c != 0 {
		t.Fatalf("same-AS hop cost = %v,%v; want 0", c, ok)
	}
	if c, ok := ASHopSelector(net).Proximity(a, far); !ok || c <= 0 {
		t.Fatalf("cross-AS hop cost = %v,%v", c, ok)
	}
	near, _ := GeoDistanceSelector(net).Proximity(a, b)
	away, _ := GeoDistanceSelector(net).Proximity(a, far)
	if near != geo.Haversine(geo.Coord{Lat: a.Lat, Lon: a.Lon}, geo.Coord{Lat: b.Lat, Lon: b.Lon}) {
		t.Fatal("geo distance must be the haversine of ground truth")
	}
	_ = away
	tab := resources.GenerateAll(net, sim.NewSource(12).Stream("res"))
	cs := CapacitySelector(net, tab)
	ca, _ := cs.Proximity(a, b)
	if ca != -tab.Get(b.ID).Score() {
		t.Fatal("capacity cost must invert the capability score")
	}
}
