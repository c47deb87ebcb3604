// P2P television: stream a live channel to 84 viewers over a mesh, with
// and without peer-resources awareness — the multimedia-distribution
// scenario that motivates the paper's introduction ("Internet TV and VoIP
// services require the switch to P2P to have lower costs").
//
// Run with: go run ./examples/streamtv
package main

import (
	"fmt"

	"unap2p/internal/core"
	"unap2p/internal/overlay/streaming"
	"unap2p/internal/resources"
	"unap2p/internal/sim"
	"unap2p/internal/topology"
	"unap2p/internal/transport"
)

func main() {
	run := func(aware bool) {
		src := sim.NewSource(5)
		net := topology.TransitStub(topology.TransitStubConfig{
			Config:   topology.Config{IntraDelay: 5, LinkDelay: 20, Rand: src.Stream("topo")},
			Transits: 2,
			Stubs:    6,
		})
		topology.PlaceHosts(net, 14, false, 1, 5, src.Stream("place"))
		table := resources.GenerateAll(net, src.Stream("res"))

		// The resource selector supplies viewer upload capacities; with
		// WeightParents it also weights parent picks by capacity (§2.3).
		sel := &core.ResourceSelector{Table: table, WeightParents: aware}
		mesh := streaming.NewMesh(transport.Over(net), sel, net.Hosts()[0], src.Stream("mesh"))
		for _, h := range net.Hosts()[1:] {
			mesh.AddViewer(h)
		}
		mesh.AssignParents()
		mesh.Run(300)

		mode := "random parents         "
		if aware {
			mode = "bandwidth-aware parents"
		}
		fmt.Printf("%s  mean continuity %6.2f%%  worst viewer %6.2f%%\n",
			mode, 100*mesh.Continuity(), 100*mesh.WorstContinuity())
	}
	fmt.Println("streaming a 400 kbps channel to 83 viewers for 300 chunks:")
	run(false)
	run(true)
	fmt.Println("\npeer-resources awareness (§2.3) puts high-upload peers where the")
	fmt.Println("mesh needs them: the starved tail of viewers disappears.")
}
