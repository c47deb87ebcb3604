package core

import (
	"testing"

	"unap2p/internal/sim"
	"unap2p/internal/topology"
	"unap2p/internal/underlay"
)

func bootstrapNet(t *testing.T) (*underlay.Network, *sim.Source) {
	t.Helper()
	src := sim.NewSource(1)
	net := topology.TransitStub(topology.TransitStubConfig{
		Config:   topology.Config{IntraDelay: 5, LinkDelay: 20, Rand: src.Stream("topo")},
		Transits: 2, Stubs: 6,
	})
	topology.PlaceHosts(net, 8, false, 1, 5, src.Stream("place"))
	return net, src
}

func TestBootstrapDefault(t *testing.T) {
	net, src := bootstrapNet(t)
	eng := Bootstrap(net, src)
	if len(eng.Estimators()) != 2 {
		t.Fatalf("default bootstrap built %d estimators, want 2", len(eng.Estimators()))
	}
	// It must rank same-AS peers ahead of far ones.
	client := net.HostsInAS(2)[0]
	sameAS := net.HostsInAS(2)[1]
	far := net.HostsInAS(7)[0]
	hostOf := func(id underlay.HostID) *underlay.Host { return net.Host(id) }
	ranked := eng.Rank(client, []underlay.HostID{far.ID, sameAS.ID}, hostOf)
	if ranked[0] != sameAS.ID {
		t.Fatalf("bootstrap engine ranked %v first", ranked[0])
	}
	// IPs were allocated on demand.
	for _, h := range net.Hosts() {
		if h.IP == 0 {
			t.Fatal("bootstrap did not allocate addresses")
		}
	}
	if eng.TotalOverhead() == 0 {
		t.Fatal("bootstrap overhead not recorded")
	}
}

func TestBootstrapPanics(t *testing.T) {
	_, src := bootstrapNet(t)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on a network without hosts")
		}
	}()
	Bootstrap(underlay.New(), src)
}

func TestBootstrapReusesExistingAddresses(t *testing.T) {
	net, src := bootstrapNet(t)
	// Pre-assign; bootstrap must not re-allocate (IPs stay stable).
	firstIPs := map[underlay.HostID]uint32{}
	Bootstrap(net, src)
	for _, h := range net.Hosts() {
		firstIPs[h.ID] = h.IP
	}
	Bootstrap(net, src.Fork("again"))
	for _, h := range net.Hosts() {
		if h.IP != firstIPs[h.ID] {
			t.Fatal("bootstrap reassigned existing addresses")
		}
	}
}
