package core_test

import (
	"fmt"

	"unap2p/internal/core"
	"unap2p/internal/ipmap"
	"unap2p/internal/sim"
	"unap2p/internal/topology"
	"unap2p/internal/underlay"
)

// The framework in one screen: collect ISP-location through an IP-to-ISP
// registry, then rank candidate neighbors so the client's own ISP comes
// first.
func ExampleEngine() {
	src := sim.NewSource(7)
	net := topology.Star(4, topology.DefaultConfig())
	topology.PlaceHosts(net, 4, false, 1, 2, src.Stream("place"))
	reg := ipmap.NewRegistry(net, ipmap.AssignAll(net))

	engine := core.NewEngine().Add(&core.IPMapEstimator{Reg: reg}, 1)

	client := net.HostsInAS(1)[0]
	var candidates []underlay.HostID
	for _, h := range net.Hosts() {
		if h.ID != client.ID {
			candidates = append(candidates, h.ID)
		}
	}
	hostOf := func(id underlay.HostID) *underlay.Host { return net.Host(id) }
	ranked := engine.Rank(client, candidates, hostOf)

	sameISP := 0
	for _, id := range ranked[:3] {
		if net.Host(id).AS.ID == client.AS.ID {
			sameISP++
		}
	}
	fmt.Printf("%d candidates ranked, %d of the best 3 from the client's own ISP\n", len(ranked), sameISP)
	// Output:
	// 11 candidates ranked, 3 of the best 3 from the client's own ISP
}

// Bootstrap wires a default engine — registry plus Vivaldi — in one call.
func ExampleBootstrap() {
	src := sim.NewSource(7)
	net := topology.Star(4, topology.DefaultConfig())
	topology.PlaceHosts(net, 4, false, 1, 2, src.Stream("place"))

	engine := core.Bootstrap(net, src)
	for _, est := range engine.Estimators() {
		fmt.Println(est.Kind(), "via", est.Method())
	}
	// Output:
	// ISP-location via IP-to-ISP mapping service
	// latency via prediction method
}
