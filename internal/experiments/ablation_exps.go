package experiments

import (
	"fmt"
	"math"
	"sort"

	"unap2p/internal/coords"
	"unap2p/internal/core"
	"unap2p/internal/linalg"
	"unap2p/internal/metrics"
	"unap2p/internal/overlay/gnutella"
	"unap2p/internal/sim"
	"unap2p/internal/topology"
	"unap2p/internal/underlay"
)

func init() {
	register("abl-coords",
		"Ablation — latency prediction quality vs overhead: explicit, Vivaldi, ICS, landmark bins",
		runAblCoords)
	register("abl-external-links",
		"Ablation — biased selection's external-link budget: locality vs overlay connectivity",
		runAblExternal)
	register("abl-ics-dim",
		"Ablation — ICS coordinate dimension vs fit quality (Eq. 9 dimension choice)",
		runAblICSDim)
}

// ablationNet builds the common latency testbed.
func ablationNet(cfg RunConfig, name string) (*underlay.Network, []*underlay.Host, *sim.Source) {
	src := sim.NewSource(cfg.Seed).Fork("abl-" + name)
	tcfg := topology.TransitStubConfig{
		Config:   topology.Config{IntraDelay: 5, LinkDelay: 20, LinkJitter: 25, Rand: src.Stream("topo")},
		Transits: 3, Stubs: 12,
	}
	net := topology.TransitStub(tcfg)
	hosts := topology.PlaceHosts(net, cfg.scaled(10), false, 1, 10, src.Stream("place"))
	return net, hosts, src
}

func runAblCoords(cfg RunConfig) Result {
	res := Result{
		Title:   "Latency collection techniques: accuracy vs probing overhead",
		Headers: []string{"technique", "median rel. error", "closest-peer hit rate", "probes"},
	}
	net, hosts, src := ablationNet(cfg, "coords")
	n := len(hosts)
	rtt := func(i, j int) float64 { return float64(net.RTT(hosts[i], hosts[j])) }

	// Evaluation: for sampled (client, 20 candidates), does the technique
	// pick the true closest? Plus median relative error over pairs. All
	// four techniques share one errs buffer.
	var errs []float64
	eval := func(predict func(i, j int) float64) (mre, hitRate float64) {
		errs = errs[:0]
		for i := 0; i < n; i += 3 {
			for j := i + 1; j < n; j += 3 {
				actual := rtt(i, j)
				if actual <= 0 {
					continue
				}
				errs = append(errs, math.Abs(predict(i, j)-actual)/actual)
			}
		}
		sort.Float64s(errs)
		mre = errs[len(errs)/2]
		pick := src.Stream("eval-" + fmt.Sprint(len(errs)))
		hits, trials := 0, 60
		for t := 0; t < trials; t++ {
			c := pick.Intn(n)
			cands := make([]int, 0, 20)
			for len(cands) < 20 {
				x := pick.Intn(n)
				if x != c {
					cands = append(cands, x)
				}
			}
			bestTrue, bestPred := cands[0], cands[0]
			for _, x := range cands {
				if rtt(c, x) < rtt(c, bestTrue) {
					bestTrue = x
				}
				if predict(c, x) < predict(c, bestPred) {
					bestPred = x
				}
			}
			if hosts[bestPred].AS.ID == hosts[bestTrue].AS.ID &&
				math.Abs(rtt(c, bestPred)-rtt(c, bestTrue)) < 0.15*rtt(c, bestTrue) {
				hits++
			}
		}
		return mre, float64(hits) / float64(trials)
	}

	// Explicit measurement: exact, O(N²) probes.
	mre, hit := eval(rtt)
	res.Rows = append(res.Rows, []string{"explicit measurement", f3(mre), pct(hit), d(uint64(n) * uint64(n-1))})

	// Vivaldi.
	vs := coords.NewVivaldiSystem(n, rtt, src.Stream("vivaldi"))
	vs.Run(150)
	mre, hit = eval(vs.Predict)
	res.Rows = append(res.Rows, []string{"Vivaldi (2d+height)", f3(mre), pct(hit), d(vs.Probes)})

	// ICS with 10 beacons.
	const m = 10
	dm, delaysOf := beacons(rtt, m, n/m)
	ics, err := coords.BuildICS(dm, coords.ICSOptions{VarThreshold: 0.95})
	if err != nil {
		panic(err)
	}
	hostCoords := make([][]float64, n)
	for i := range hostCoords {
		hostCoords[i], _ = ics.HostCoord(delaysOf(i))
	}
	mre, hit = eval(func(i, j int) float64 { return ics.Predict(hostCoords[i], hostCoords[j]) })
	res.Rows = append(res.Rows, []string{
		fmt.Sprintf("ICS (%d beacons, dim %d)", m, ics.Dim), f3(mre), pct(hit),
		d(uint64(n)*m + m*(m-1)),
	})

	// Landmark bins: no numeric predictions; score via bin similarity
	// (more similar = assumed closer). Report hit rate only.
	bins := make([]coords.Bin, n)
	for i := range bins {
		bins[i] = coords.ComputeBin(delaysOf(i))
	}
	_, hit = eval(func(i, j int) float64 { return 1 - bins[i].Similarity(bins[j]) })
	res.Rows = append(res.Rows, []string{
		fmt.Sprintf("landmark bins (%d landmarks)", m), "n/a (ordinal)", pct(hit), d(uint64(n) * m),
	})

	res.Notes = append(res.Notes,
		"the §3.2 trade-off: explicit measurement is exact but needs O(N²) probes; coordinate systems",
		"answer any pair from O(N) probes at moderate error; ordinal landmark bins are cheapest and",
		"only cluster. 'closest-peer hit' = technique's pick lands in the true closest peer's AS",
		"within 15% of the optimal RTT.")
	return res
}

func runAblExternal(cfg RunConfig) Result {
	res := Result{
		Title:   "External (inter-AS) connection budget under biased neighbor selection",
		Headers: []string{"external per node", "intra-AS edges", "components", "mean degree"},
	}
	for _, ext := range []int{0, 1, 2, 4} {
		src := sim.NewSource(cfg.Seed).Fork(fmt.Sprintf("ext-%d", ext))
		net, hosts := transitStub(src, 2, 12, 20, cfg.scaled(12), 6)
		gcfg := gnutella.DefaultConfig()
		gcfg.ExternalPerNode = ext
		ov := cfg.joinGnutella(net, hosts, nil, core.NewOracleSelector(net, true, false),
			gcfg, src.Stream("overlay"))
		edges := ov.Edges()
		labels := ov.ASLabels()
		res.Rows = append(res.Rows, []string{
			di(ext),
			pct(metrics.IntraASEdgeFraction(edges, labels)),
			di(metrics.ComponentCount(net.NumHosts(), edges)),
			f1(metrics.MeanDegree(net.NumHosts(), edges)),
		})
	}
	res.Notes = append(res.Notes,
		"the §4 caveat quantified: with zero external links pure locality biasing can shatter the",
		"overlay into per-AS islands; one random inter-AS link per node already restores a single",
		"component while keeping most edges local — 'a minimal number of inter-AS connections'.")
	return res
}

func runAblICSDim(cfg RunConfig) Result {
	res := Result{
		Title:   "ICS dimension choice: cumulative variation vs beacon fit error",
		Headers: []string{"dimension", "cumulative variation", "beacon RMS fit error"},
	}
	net, hosts, _ := ablationNet(cfg, "icsdim")
	const m = 12
	dm, _ := beacons(func(i, j int) float64 { return float64(net.RTT(hosts[i], hosts[j])) }, m, len(hosts)/m)
	full, err := coords.BuildICS(dm, coords.ICSOptions{Dim: m})
	if err != nil {
		panic(err)
	}
	cv := linalg.CumulativeVariation(full.Sigma)
	for dim := 1; dim <= 8; dim++ {
		ics, err := coords.BuildICS(dm, coords.ICSOptions{Dim: dim})
		if err != nil {
			panic(err)
		}
		res.Rows = append(res.Rows, []string{di(dim), pct(cv[dim-1]), f2(ics.FitError())})
	}
	chosen := linalg.ChooseDimension(full.Sigma, 0.95)
	res.Notes = append(res.Notes,
		fmt.Sprintf("Eq. (9) with threshold 0.95 picks dimension %d;", chosen),
		"fit error falls steeply until the chosen dimension and flattens after — the diminishing",
		"returns that justify low-dimensional coordinates.")
	return res
}
