package core

import (
	"unap2p/internal/coords"
	"unap2p/internal/ipmap"
	"unap2p/internal/sim"
	"unap2p/internal/underlay"
)

// bootstrapVivaldiRounds is the gossip Bootstrap spends converging its
// Vivaldi system.
const bootstrapVivaldiRounds = 100

// Bootstrap assembles a ready-to-use Engine over a network with the two
// information kinds every file-sharing deployment wants first:
// ISP location from an IP-to-ISP registry (weight 1), and latency from a
// Vivaldi system converged over the hosts (weight 0.01, which normalizes
// millisecond-scale costs against the 0/1 and hop-count scales of the
// ISP estimator). Hosts without addresses get them. This is the survey's
// "general architecture" reduced to one call.
func Bootstrap(net *underlay.Network, src *sim.Source) *Engine {
	if net.NumHosts() == 0 {
		panic("core: Bootstrap on a network without hosts")
	}
	hosts := net.Hosts()
	eng := NewEngine()

	// Allocate the IP plan lazily: hosts without addresses get them.
	needPlan := false
	for _, h := range hosts {
		if h.IP == 0 {
			needPlan = true
			break
		}
	}
	var plan *ipmap.Plan
	if needPlan {
		plan = ipmap.AssignAll(net)
	} else {
		plan = ipmap.NewPlan(net)
	}
	eng.Add(&IPMapEstimator{Reg: ipmap.NewRegistry(net, plan)}, 1)

	rtt := func(i, j int) float64 { return float64(net.RTT(hosts[i], hosts[j])) }
	vs := coords.NewVivaldiSystem(len(hosts), rtt, src.Stream("core/vivaldi"))
	vs.Run(bootstrapVivaldiRounds)
	idx := make(map[underlay.HostID]int, len(hosts))
	for i, h := range hosts {
		idx[h.ID] = i
	}
	eng.Add(&VivaldiEstimator{S: vs, Index: idx}, 0.01)
	return eng
}
