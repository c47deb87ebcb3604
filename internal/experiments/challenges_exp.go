package experiments

import (
	"fmt"
	"sort"

	"unap2p/internal/sim"
	"unap2p/internal/underlay"
)

func init() {
	register("exp-challenges",
		"§6 — asymmetric node selection and the long-hop problem, quantified",
		runChallenges)
}

// buildAsymmetricNet creates a transit-stub network whose transit links
// have different up/down delays (asymmetric routing paths) and one
// "satellite" stub whose single hop carries a large delay (the long-hop
// case: few AS hops, big latency).
func buildAsymmetricNet(seed int64) (*underlay.Network, []*underlay.Host, int) {
	src := sim.NewSource(seed).Fork("challenges")
	r := src.Stream("topo")
	net := underlay.New()
	t0 := net.AddAS(underlay.TransitISP, 3)
	t1 := net.AddAS(underlay.TransitISP, 3)
	net.ConnectPeering(t0, t1, 15)
	transits := []*underlay.AS{t0, t1}
	var satelliteAS int
	for i := 0; i < 10; i++ {
		s := net.AddAS(underlay.LocalISP, 2)
		prov := transits[r.Intn(2)]
		up := sim.Duration(5 + r.Float64()*20)
		down := up * sim.Duration(0.5+r.Float64()*2.0) // asymmetry ×0.5..×2.5
		if i == 9 {
			// The satellite stub: one hop, enormous delay both ways.
			up, down = 300, 300
			satelliteAS = s.ID
		}
		net.ConnectTransitAsym(s, prov, up, down)
	}
	place := src.Stream("place")
	var hosts []*underlay.Host
	for _, as := range net.ASes() {
		if as.Kind == underlay.TransitISP {
			continue
		}
		for i := 0; i < 8; i++ {
			h := net.AddHost(as, sim.Duration(1+place.Float64()*4))
			hosts = append(hosts, h)
		}
	}
	return net, hosts, satelliteAS
}

func runChallenges(cfg RunConfig) Result {
	res := Result{
		Title:   "Asymmetric node selection and long-hop inversions on an asymmetric underlay",
		Headers: []string{"challenge", "metric", "value"},
	}
	net, hosts, satAS := buildAsymmetricNet(cfg.Seed)

	// Asymmetric node selection: for each host A, find B = its closest
	// peer in a *different* AS (the selection locality awareness makes
	// when the own AS offers no candidate). Count (1) measurement
	// asymmetry |A→B − B→A| > 10% and (2) selection asymmetry: A is not
	// B's own closest foreign peer.
	closestForeign := func(a *underlay.Host) *underlay.Host {
		var best *underlay.Host
		bestD := sim.Forever
		for _, b := range hosts {
			if b.ID == a.ID || b.AS.ID == a.AS.ID {
				continue
			}
			if d := net.Latency(a, b); d < bestD {
				best, bestD = b, d
			}
		}
		return best
	}
	measAsym, selAsym := 0, 0
	for _, a := range hosts {
		b := closestForeign(a)
		ab, ba := net.Latency(a, b), net.Latency(b, a)
		hi, lo := float64(ab), float64(ba)
		if lo > hi {
			hi, lo = lo, hi
		}
		if lo > 0 && (hi-lo)/lo > 0.10 {
			measAsym++
		}
		if closestForeign(b).ID != a.ID {
			selAsym++
		}
	}
	n := len(hosts)
	res.Rows = append(res.Rows, []string{
		"asymmetric selection", "pairs with >10% one-way delay asymmetry",
		fmt.Sprintf("%d/%d (%s)", measAsym, n, pct(float64(measAsym)/float64(n))),
	})
	res.Rows = append(res.Rows, []string{
		"asymmetric selection", "closest-peer relation not mutual",
		fmt.Sprintf("%d/%d (%s)", selAsym, n, pct(float64(selAsym)/float64(n))),
	})

	// Long hop: rank peers by AS hops vs by true delay; count inversions
	// where fewer hops but strictly higher delay (the satellite stub is
	// one hop from its transit but 300 ms away).
	inversions, pairs := 0, 0
	var worstPenalty float64
	for i := 0; i < len(hosts); i += 4 {
		a := hosts[i]
		type peerInfo struct {
			hops  int
			delay float64
		}
		var infos []peerInfo
		for j := 0; j < len(hosts); j += 4 {
			if i == j {
				continue
			}
			b := hosts[j]
			infos = append(infos, peerInfo{
				hops:  net.ASHops(a.AS.ID, b.AS.ID),
				delay: float64(net.Latency(a, b)),
			})
		}
		sort.Slice(infos, func(x, y int) bool { return infos[x].hops < infos[y].hops })
		for x := 0; x < len(infos); x++ {
			for y := x + 1; y < len(infos); y++ {
				if infos[x].hops < infos[y].hops {
					pairs++
					if infos[x].delay > infos[y].delay {
						inversions++
						if p := infos[x].delay - infos[y].delay; p > worstPenalty {
							worstPenalty = p
						}
					}
				}
			}
		}
	}
	res.Rows = append(res.Rows, []string{
		"long hop", "hop-order vs delay-order inversions",
		fmt.Sprintf("%d/%d (%s)", inversions, pairs, pct(float64(inversions)/float64(pairs))),
	})
	res.Rows = append(res.Rows, []string{
		"long hop", "worst single-hop delay penalty (ms)", f1(worstPenalty),
	})
	res.Rows = append(res.Rows, []string{
		"long hop", "satellite stub AS (1 hop, 300 ms)", di(satAS),
	})
	res.Notes = append(res.Notes,
		"§6: asymmetry makes underlay measurements 'less precise'; hop-based locality awareness that",
		"ignores message delays suffers the long-hop problem — one AS hop can hide a large delay.",
		"shape targets: both asymmetry rates well above zero; inversion count dominated by the",
		"satellite stub's single 300 ms hop.")
	return res
}
