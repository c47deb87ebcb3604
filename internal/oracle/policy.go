package oracle

import (
	"sort"

	"unap2p/internal/underlay"
)

// Policy weights let the ISP express traffic-engineering preferences in
// its ranking, beyond plain AS-hop distance — the P4P idea (Xie et al.,
// [29] in the paper): the provider portal ranks candidates by a "pDistance"
// that encodes what each path actually costs the ISP.
type Policy struct {
	// SameASCost is the pDistance of staying inside the AS (usually 0).
	SameASCost float64
	// PeeringHopCost is the pDistance of each settlement-free peering hop.
	PeeringHopCost float64
	// TransitHopCost is the pDistance of each paid transit hop — the
	// expensive resource the ISP wants off-loaded.
	TransitHopCost float64
	// UnreachableCost ranks unreachable candidates last.
	UnreachableCost float64
}

// PDistance computes the policy cost of reaching dst's AS from src's AS:
// the sum of per-hop costs along the routed path.
func (o *Oracle) PDistance(p Policy, srcAS, dstAS int) float64 {
	if srcAS == dstAS {
		return p.SameASCost
	}
	path := o.net.ASPath(srcAS, dstAS)
	if path == nil {
		return p.UnreachableCost
	}
	var cost float64
	for i := 0; i+1 < len(path); i++ {
		as := o.net.AS(path[i])
		for _, l := range as.Links() {
			if l.Other(as.ID).ID == path[i+1] {
				if l.Kind == underlay.Transit {
					cost += p.TransitHopCost
				} else {
					cost += p.PeeringHopCost
				}
				break
			}
		}
	}
	return cost
}

// RankPolicy orders candidates by ascending pDistance from the client,
// preserving input order among equals. Unlike Rank (plain AS hops), a
// peered neighbor AS outranks an equally-near AS reached over transit.
func (o *Oracle) RankPolicy(p Policy, client *underlay.Host, candidates []underlay.HostID) []underlay.HostID {
	o.Queries++
	out := append([]underlay.HostID(nil), candidates...)
	if o.Down {
		return out
	}
	cost := make(map[underlay.HostID]float64, len(out))
	for _, id := range out {
		cost[id] = o.PDistance(p, client.AS.ID, o.net.Host(id).AS.ID)
	}
	sort.SliceStable(out, func(i, j int) bool { return cost[out[i]] < cost[out[j]] })
	if o.MaxList > 0 && len(out) > o.MaxList {
		out = out[:o.MaxList]
	}
	return out
}

// Behaviour models the trust problem of §6 ("ISP Internal Information"):
// clients cannot verify the oracle's answers, so a self-interested or
// compromised oracle can rank against the user's interest.
type Behaviour int

const (
	// Honest ranks by real proximity.
	Honest Behaviour = iota
	// SelfServing ranks to minimize the ISP's cost even when a farther
	// (for the user) peer results — it uses pDistance with extreme
	// transit weights regardless of user latency.
	SelfServing
	// Malicious inverts the ranking: the worst candidates first. A client
	// that blindly trusts it systematically picks the most distant peers.
	Malicious
)

// RankWith applies a behaviour. Honest == Rank; SelfServing == RankPolicy
// with transit-punishing weights; Malicious reverses the honest ranking.
func (o *Oracle) RankWith(b Behaviour, client *underlay.Host, candidates []underlay.HostID) []underlay.HostID {
	switch b {
	case SelfServing:
		return o.RankPolicy(Policy{PeeringHopCost: 0.1, TransitHopCost: 100, UnreachableCost: 1e9},
			client, candidates)
	case Malicious:
		ranked := o.Rank(client, candidates)
		for i, j := 0, len(ranked)-1; i < j; i, j = i+1, j-1 {
			ranked[i], ranked[j] = ranked[j], ranked[i]
		}
		return ranked
	default:
		return o.Rank(client, candidates)
	}
}
