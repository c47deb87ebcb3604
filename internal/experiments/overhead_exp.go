package experiments

import (
	"unap2p/internal/cdn"
	"unap2p/internal/core"
	"unap2p/internal/sim"
	"unap2p/internal/underlay"
)

func init() {
	register("exp-overhead",
		"§5.4 open issue — the overhead each collection technique costs vs the benefit it buys",
		runOverhead)
}

// runOverhead drives the same neighbor-selection workload through every
// Figure 3 estimator and reports, per technique, the collection overhead
// spent against the proximity benefit obtained — the "general study about
// the introduced overhead due to underlay awareness" the paper lists as
// an open issue.
func runOverhead(cfg RunConfig) Result {
	res := Result{
		ID:      "exp-overhead",
		Title:   "Collection overhead vs selection benefit, per technique",
		Headers: []string{"technique", "overhead (ops)", "underlay bytes", "mean RTT to picks (ms)", "RTT gain vs random"},
	}
	net, ests := buildEstimators(cfg)
	hosts := net.Hosts()
	pickRand := sim.NewSource(cfg.Seed).Fork("overhead").Stream("picks")
	// One transport counter set for every technique: RouteOverhead charges
	// each engine's collection cost to "awareness:<method>" counters here,
	// next to where protocol traffic would be counted — the unified
	// accounting the §5.4 open issue asks for.
	tr := cfg.newTransportOver(net)

	// Fixed evaluation workload: 80 (client, 25-candidate) selection
	// problems; every technique ranks the same sets.
	type problem struct {
		client *underlay.Host
		cands  []underlay.HostID
	}
	var problems []problem
	for i := 0; i < cfg.scaled(80); i++ {
		client := hosts[pickRand.Intn(len(hosts))]
		var cands []underlay.HostID
		for len(cands) < 25 {
			c := hosts[pickRand.Intn(len(hosts))]
			if c.ID != client.ID {
				cands = append(cands, c.ID)
			}
		}
		problems = append(problems, problem{client, cands})
	}
	evalRTT := func(rank func(p problem) underlay.HostID) float64 {
		var sum float64
		for _, p := range problems {
			sum += float64(net.RTT(p.client, net.Host(rank(p))))
		}
		return sum / float64(len(problems))
	}

	randomRTT := evalRTT(func(p problem) underlay.HostID {
		return p.cands[pickRand.Intn(len(p.cands))]
	})
	res.Rows = append(res.Rows, []string{
		"random (unaware)", "0", "0", f1(randomRTT), "—",
	})

	for _, est := range ests {
		est := est
		bytesBefore := net.SentBytes()
		counter := core.OverheadCounterName(est.Method())
		countBefore := tr.Counters().Value(counter)
		// Each technique becomes a single-estimator engine driving the
		// selector's source-selection verb — the same composition the
		// overlays consume, so the overhead measured here is the overhead
		// they actually incur. The miss penalty keeps pairs the technique
		// cannot answer from ever beating a real estimate.
		eng := core.NewEngine().Add(est, 1)
		eng.MissPenalty = 1e18
		eng.RouteOverhead(tr.Counters())
		sel := core.NewEngineSelector(eng, net)
		rtt := evalRTT(func(p problem) underlay.HostID {
			best, _ := sel.SelectSource(p.client, p.cands)
			return best
		})
		name := est.Method().String()
		switch e := est.(type) {
		case *core.CDNEstimator:
			name += " (Ono)"
		case *core.VivaldiEstimator:
			name += " (Vivaldi)"
		case *core.ICSEstimator:
			name += " (ICS)"
		case *core.GeoEstimator:
			if e.Via == core.IPToLocationMapping {
				name = "IP-to-location mapping service"
			}
		}
		res.Rows = append(res.Rows, []string{
			name,
			d(tr.Counters().Value(counter) - countBefore + overheadSetup(est)),
			d(net.SentBytes() - bytesBefore),
			f1(rtt),
			pct((randomRTT - rtt) / randomRTT),
		})
	}
	res.Notes = append(res.Notes,
		"§5.4: 'a general study about the introduced overhead due to underlay awareness remains an",
		"open issue' — here it is for one selection workload: explicit measurement buys the biggest",
		"gain but pays per estimate in probes and bytes; prediction methods paid once during setup",
		"and answer for free; mapping services are nearly free but only see ISP boundaries. The",
		"information-management overlay shows ~no RTT gain by design: it optimizes capability and",
		"stability (see exp-superpeer), not proximity.")
	return res
}

// overheadSetup reports the one-time collection cost an estimator paid
// before the workload (coordinate convergence, CDN observations, fixes).
func overheadSetup(est core.Estimator) uint64 {
	switch e := est.(type) {
	case *core.VivaldiEstimator:
		return e.S.Probes
	case *core.ICSEstimator:
		return e.Measurements
	case *core.CDNEstimator:
		return e.Observations
	case *core.GeoEstimator:
		return e.Fixes
	case *core.ResourceEstimator:
		return e.UpdateMsgs
	default:
		return 0
	}
}

var _ = cdn.Cosine // keep the cdn import for the type assertion context
