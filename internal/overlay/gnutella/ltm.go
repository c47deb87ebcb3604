package gnutella

import (
	"unap2p/internal/underlay"
)

// Location-aware topology matching (Liu et al., INFOCOM 2004 — "LTM",
// [21] in the paper — and the measurement-based construction of Zhang et
// al. [35], "MBC"): instead of biasing the overlay at join time, nodes
// continuously *measure* their neighbors, cut the worst-matched (slowest)
// connection, and reconnect to a measured-closer peer. The overlay
// converges toward the underlay without any ISP cooperation.

// probeBytes is the size of one measurement probe.
const probeBytes = 40

// LTM's conservative topology-matching settings.
const (
	// adaptCandidates is how many Hostcache entries a node probes per
	// round.
	adaptCandidates = 5
	// adaptImprovement is the minimum relative RTT gain (20%) before a
	// node cuts its worst link — hysteresis against flapping.
	adaptImprovement = 0.2
	// adaptMinDegree protects connectivity: no cut may drop either
	// endpoint below this degree.
	adaptMinDegree = 2
)

// AdaptRound performs one topology-matching round over every online
// ultrapeer (in deterministic order): measure all neighbors, probe a few
// Hostcache candidates, and replace the worst neighbor with a clearly
// closer candidate. It returns the number of rewires performed. Probes
// are real messages: they are counted under "probe" and charged to the
// underlay — the measurement overhead §3.2 warns about.
func (o *Overlay) AdaptRound() int {
	rewires := 0
	for _, id := range o.order {
		n := o.nodes[id]
		if !n.Ultra || !n.Host.Up || n.Degree() == 0 {
			continue
		}
		// Measure current neighbors (one probe pair each).
		var worst underlay.HostID
		worstRTT := -1.0
		for _, nb := range n.neighbors {
			peer := o.nodes[nb]
			if !peer.Host.Up {
				continue
			}
			rtt, ok := o.probe(n, peer)
			if !ok {
				continue // probe lost: this neighbor goes unmeasured this round
			}
			if rtt > worstRTT {
				worst, worstRTT = nb, rtt
			}
		}
		if worstRTT < 0 || n.Degree() <= adaptMinDegree {
			continue
		}
		if o.nodes[worst].Degree() <= adaptMinDegree {
			continue
		}
		// Probe a few candidates from the Hostcache.
		var best underlay.HostID
		bestRTT := worstRTT
		probed := 0
		for _, cand := range n.hostcache {
			if probed >= adaptCandidates {
				break
			}
			c := o.nodes[cand]
			if c == nil || !c.Ultra || !c.Host.Up || n.neighbors.has(cand) || cand == n.Host.ID {
				continue
			}
			if c.Degree() >= o.Cfg.MaxUltraDegree {
				continue
			}
			probed++ // the probe budget is spent even if the probe is lost
			if rtt, ok := o.probe(n, c); ok && rtt < bestRTT {
				best, bestRTT = cand, rtt
			}
		}
		if best == 0 && bestRTT == worstRTT {
			continue
		}
		if worstRTT-bestRTT < adaptImprovement*worstRTT {
			continue // not enough gain to justify a rewire
		}
		// Rewire: cut the worst link, adopt the better candidate.
		n.neighbors.remove(worst)
		o.nodes[worst].neighbors.remove(n.Host.ID)
		n.neighbors.add(best)
		o.nodes[best].neighbors.add(n.Host.ID)
		rewires++
	}
	return rewires
}

// probe measures the RTT between two nodes with a real probe/response
// pair through the transport; ok is false when either leg was lost.
func (o *Overlay) probe(a, b *Node) (float64, bool) {
	r := o.T.Probe(a.Host, b.Host, probeBytes)
	return float64(r.Latency), r.OK
}

// MeanNeighborRTT reports the average RTT across live overlay links —
// the topology-mismatch metric LTM optimizes.
func (o *Overlay) MeanNeighborRTT() float64 {
	var sum float64
	n := 0
	for _, id := range o.order {
		node := o.nodes[id]
		for _, nb := range node.neighbors {
			if id < nb { // each edge once
				sum += float64(o.U.RTT(node.Host, o.nodes[nb].Host))
				n++
			}
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
