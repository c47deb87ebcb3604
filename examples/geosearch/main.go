// Geolocation-aware search: peers register their GPS positions in a
// zone-tree overlay (Globase.KOM-style); location-constrained queries
// descend only into intersecting zones — the point-of-interest scenario
// of §2.4.
//
// Run with: go run ./examples/geosearch
package main

import (
	"fmt"

	"unap2p/internal/core"
	"unap2p/internal/geo"
	"unap2p/internal/overlay/geotree"
	"unap2p/internal/sim"
	"unap2p/internal/topology"
	"unap2p/internal/transport"
)

func main() {
	src := sim.NewSource(3)
	net := topology.Star(8, topology.DefaultConfig())
	hosts := topology.PlaceHosts(net, 30, false, 1, 5, src.Stream("place"))

	// Every peer registers in the tree under its GPS fix, supplied by the
	// geolocation selector (§3.3).
	tree := geotree.New(transport.Over(net), core.GeoSelector{})
	for _, h := range hosts {
		tree.Insert(h)
	}
	fmt.Printf("registered %d peers; zone tree depth %d\n", tree.Size(), tree.Depth())

	me := hosts[0]
	here := geo.Coord{Lat: me.Lat, Lon: me.Lon}
	fmt.Printf("I am peer %d at %v\n\n", me.ID, here)

	for _, radius := range []float64{100, 500, 2500} {
		found, st := tree.SearchBox(me, geo.BoxAround(here, radius))
		fmt.Printf("peers within %5.0f km: %3d  (%d messages, %d zones, est. %.0f ms)\n",
			radius, len(found), st.Msgs, st.ZonesVisited, float64(st.Latency))
	}

	// Nearest *other* peer: deregister ourselves for the lookup (churn
	// support doubles as a self-exclusion mechanism), then re-register.
	tree.Remove(me)
	if id, st, ok := tree.NearestPeer(me, here); ok {
		h := net.Host(id)
		fmt.Printf("\nnearest other peer: %d at %.1f km (%d messages)\n",
			id, geo.Haversine(here, geo.Coord{Lat: h.Lat, Lon: h.Lon}), st.Msgs)
	}
	tree.Insert(me)
}
