// Latency-aware DHT: converge a Vivaldi coordinate system over the
// simulated Internet, then compare Kademlia lookups with and without
// proximity neighbor selection — the §3.2 (collection) plus §4 (usage)
// pipeline for latency information.
//
// Run with: go run ./examples/latencyoverlay
package main

import (
	"fmt"

	"unap2p/internal/coords"
	"unap2p/internal/core"
	"unap2p/internal/overlay/kademlia"
	"unap2p/internal/sim"
	"unap2p/internal/topology"
	"unap2p/internal/transport"
)

func main() {
	src := sim.NewSource(21)
	net := topology.TransitStub(topology.TransitStubConfig{
		Config:   topology.Config{IntraDelay: 5, LinkDelay: 25, Rand: src.Stream("topo")},
		Transits: 2,
		Stubs:    10,
	})
	hosts := topology.PlaceHosts(net, 12, false, 1, 6, src.Stream("place"))

	// Collection: Vivaldi — every peer learns a coordinate from a few
	// gossip probes per round instead of O(N²) pings.
	rtt := func(i, j int) float64 { return float64(net.RTT(hosts[i], hosts[j])) }
	vs := coords.NewVivaldiSystem(len(hosts), rtt, src.Stream("vivaldi"))
	vs.Run(100)
	fmt.Printf("vivaldi: %d nodes, %d probes, median relative error %.3f\n",
		len(hosts), vs.Probes, vs.MedianRelativeError())

	// Usage: the same DHT workload under plain and proximity-aware
	// routing tables.
	for _, pns := range []bool{false, true} {
		cfg := kademlia.DefaultConfig()
		var sel core.Selector
		if pns {
			sel = core.RTTSelector(net)
		}
		d := kademlia.New(transport.Over(net), sel, cfg, sim.NewSource(11).Fork(fmt.Sprint("dht-", pns)).Stream("dht"))
		for _, h := range hosts {
			d.AddNode(h)
		}
		d.Bootstrap(4)

		probe := sim.NewSource(99).Stream("probe")
		var lat sim.Duration
		var hops int
		const lookups = 100
		for i := 0; i < lookups; i++ {
			from := d.Nodes()[probe.Intn(len(d.Nodes()))].Host
			res := d.Lookup(from, kademlia.NodeID(probe.Uint64()))
			lat += res.Latency
			hops += res.Hops
		}
		mode := "plain kademlia"
		if pns {
			mode = "with PNS      "
		}
		fmt.Printf("%s  mean lookup %6.1f ms over %.1f hops\n",
			mode, float64(lat)/lookups, float64(hops)/lookups)
	}
	fmt.Println("\nPNS fills each k-bucket with the lowest-RTT eligible contacts, so")
	fmt.Println("lookups ride faster links without taking more hops (Kaune et al.).")
}
