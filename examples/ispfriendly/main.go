// ISP-friendly file distribution: a BitTorrent swarm under an unbiased vs
// a biased tracker, with the resulting transit bill for every local ISP —
// the economics case of §2.1/Figure 2 end to end.
//
// Run with: go run ./examples/ispfriendly
package main

import (
	"fmt"

	"unap2p/internal/core"
	"unap2p/internal/cost"
	"unap2p/internal/overlay/bittorrent"
	"unap2p/internal/sim"
	"unap2p/internal/topology"
	"unap2p/internal/transport"
	"unap2p/internal/underlay"
)

func main() {
	run := func(biased bool) {
		src := sim.NewSource(7)
		net := topology.TransitStub(topology.TransitStubConfig{
			Config:   topology.Config{IntraDelay: 5, LinkDelay: 20, Rand: src.Stream("topo")},
			Transits: 2,
			Stubs:    6,
		})
		topology.PlaceHosts(net, 15, false, 1, 5, src.Stream("place"))

		cfg := bittorrent.DefaultConfig()
		var sel core.Selector
		if biased {
			// The tracker consults AS-hop distances (§3.1) to hand out
			// mostly same-ISP neighbors.
			sel = core.ASHopSelector(net)
		}
		swarm := bittorrent.NewSwarm(transport.Over(net), sel, cfg, src.Stream("swarm"))
		for i, h := range net.Hosts() {
			if i == 0 {
				swarm.AddSeed(h)
			} else {
				swarm.AddLeecher(h)
			}
		}
		swarm.AssignNeighbors()
		swarm.Run(100000)
		st := swarm.Stats()

		// Bill every ISP: transit at $10/Mbps (95th percentile), peering
		// ports at a flat $500/month. One round ≈ one second of wall
		// time for rate purposes.
		elapsed := sim.Duration(swarm.Rounds) * sim.Second
		report := cost.BillNetwork(net,
			cost.TransitContract{PricePerMbps: 10},
			cost.PeeringContract{MonthlyFee: 500},
			elapsed)

		mode := "unbiased tracker"
		if biased {
			mode = "biased tracker  "
		}
		var stubBill float64
		for _, as := range net.ASes() {
			if as.Kind == underlay.LocalISP {
				stubBill += report.PerAS[as.ID]
			}
		}
		fmt.Printf("%s  intra-AS %5.1f%%  mean dl %5.1f rounds  local-ISP bill $%9.2f\n",
			mode, 100*st.IntraASFraction, st.MeanCompletionRound, stubBill)
	}
	fmt.Println("distributing a 16 MB file to 90 peers across 6 ISPs:")
	run(false)
	run(true)
	fmt.Println("\nbiased neighbor selection keeps pieces inside each ISP: the")
	fmt.Println("transit bill drops while download times stay comparable (Bindal et al.).")
}
