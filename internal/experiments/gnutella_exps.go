package experiments

import (
	"fmt"
	"strings"

	"unap2p/internal/core"
	"unap2p/internal/metrics"
	"unap2p/internal/overlay/gnutella"
	"unap2p/internal/sim"
	"unap2p/internal/underlay"
	"unap2p/internal/workload"
)

func init() {
	register("fig5-overlay-viz",
		"Figure 5/6 — Gnutella overlay topology, unbiased vs oracle-biased (AS clustering)",
		runFig5)
	register("tab1-gnutella-msgs",
		"Table 1 of Aggarwal et al. — Gnutella message counts, unbiased vs biased (cache 100/1000)",
		runTab1Gnutella)
	register("exp-intra-as",
		"Intra-AS file exchange — 6.5% unbiased → 40.57% with oracle at join + file-exchange stage",
		runIntraAS)
}

// gnutellaSetup holds a ready-to-measure overlay.
type gnutellaSetup struct {
	net *underlay.Network
	ov  *gnutella.Overlay
	gen *workload.QueryGen
}

// buildGnutella constructs the shared scenario: a 40-stub transit–stub
// Internet (so that same-AS peers are *rare* in a random Hostcache, as in
// the real Gnutella crawl where <5% of peers had same-AS neighbors),
// hosts with locality-correlated content, and a Gnutella overlay under
// the given bias configuration.
func buildGnutella(cfg RunConfig, variant string, hostcache int, biasJoin, biasSource bool) gnutellaSetup {
	src := sim.NewSource(cfg.Seed).Fork("gnutella-" + variant)
	net, hosts := transitStub(src, 3, 40, 20, cfg.scaled(12), 8)

	catalog := workload.NewCatalog(cfg.scaled(200))
	// Locality-correlated content (Rasti et al.): most items have copies
	// "in the proximity" of their interested users.
	workload.PopulateLocal(catalog, net, hosts, 5, 0.5, src.Stream("content"))

	gcfg := gnutella.DefaultConfig()
	gcfg.HostcacheSize = hostcache
	gcfg.PingTTL = 3
	gcfg.QueryTTL = 3
	var sel core.Selector
	if biasJoin || biasSource {
		sel = core.NewOracleSelector(net, biasJoin, biasSource)
	}
	ov := cfg.joinGnutella(net, hosts, nil, sel, gcfg, src.Stream("overlay"))
	ov.Catalog = catalog
	// Sampled runs get a health curve per variant; the kernel tick
	// registered by newTransport samples it as the search phase advances
	// simulated time.
	cfg.observeHealth("gnutella-"+variant, ov.HealthStats)

	gen := workload.NewQueryGen(net, catalog, hosts, 0.4, 1.0, src.Stream("queries"))
	return gnutellaSetup{net: net, ov: ov, gen: gen}
}

// drive runs pings from every node plus nQueries search+download cycles.
func (g gnutellaSetup) drive(nQueries int) {
	for _, n := range g.ov.Nodes() {
		g.ov.Ping(n.Host.ID)
	}
	g.ov.K.Drain()
	for i := 0; i < nQueries; i++ {
		q, ok := g.gen.Next(g.ov.K.Now())
		if !ok {
			break
		}
		res := g.ov.RunSearch(q.From, q.Item)
		g.ov.Download(res)
	}
}

func runFig5(cfg RunConfig) Result {
	res := Result{
		Title:   "Gnutella overlay clustering: uniform random vs biased neighbor selection",
		Headers: []string{"overlay", "intra-AS edges", "modularity(AS)", "inter-AS edges", "components", "mean degree"},
	}
	for _, a := range []arm{{false, "fig5-unbiased", "unbiased"}, {true, "fig5-biased (oracle)", "biased (oracle)"}} {
		g := buildGnutella(cfg, a.tag, 100, a.on, false)
		edges := g.ov.Edges()
		labels := g.ov.ASLabels()
		res.Rows = append(res.Rows, []string{
			a.label,
			pct(metrics.IntraASEdgeFraction(edges, labels)),
			f3(metrics.Modularity(edges, labels)),
			di(metrics.InterASEdgeCount(edges, labels)),
			di(metrics.ComponentCount(g.net.NumHosts(), edges)),
			f1(metrics.MeanDegree(g.net.NumHosts(), edges)),
		})
	}
	// The figure itself: AS×AS edge-density heatmaps (dark diagonal =
	// ISP clustering), appended as notes.
	for _, a := range []arm{{false, "fig5viz-unbiased", "unbiased"}, {true, "fig5viz-biased", "biased"}} {
		g := buildGnutella(cfg, a.tag, 100, a.on, false)
		res.Notes = append(res.Notes, a.label+" AS-adjacency heatmap (rows/cols = ASes):")
		for _, line := range strings.Split(strings.TrimSuffix(
			metrics.ASHeatmap(g.ov.Edges(), g.ov.ASLabels()), "\n"), "\n") {
			res.Notes = append(res.Notes, "  "+line)
		}
	}
	res.Notes = append(res.Notes,
		"paper: Aggarwal et al. observed <5% of Gnutella peers pick same-AS neighbors unbiased;",
		"the oracle clusters the overlay along ISP boundaries with a minimal number of inter-AS",
		"links while keeping it connected (components must stay 1).")
	return res
}

func runTab1Gnutella(cfg RunConfig) Result {
	res := Result{
		Title:   "Gnutella message counts by type (scaled reproduction of CCR'07 Table 1)",
		Headers: []string{"message type", "unbiased", "biased cache 100", "biased cache 1000"},
	}
	type variant struct {
		name  string
		cache int
		bias  bool
	}
	variants := []variant{
		{"unbiased", 100, false},
		{"biased100", 100, true},
		{"biased1000", 1000, true},
	}
	counts := make([]map[string]uint64, len(variants))
	nQueries := cfg.scaled(300)
	for i, v := range variants {
		g := buildGnutella(cfg, "tab1-"+v.name, v.cache, v.bias, false)
		g.drive(nQueries)
		counts[i] = map[string]uint64{
			"Ping":     g.ov.Msgs.Value("ping"),
			"Pong":     g.ov.Msgs.Value("pong"),
			"Query":    g.ov.Msgs.Value("query"),
			"QueryHit": g.ov.Msgs.Value("queryhit"),
		}
	}
	for _, mt := range []string{"Ping", "Pong", "Query", "QueryHit"} {
		res.Rows = append(res.Rows, []string{
			mt, d(counts[0][mt]), d(counts[1][mt]), d(counts[2][mt]),
		})
	}
	res.Notes = append(res.Notes,
		"paper reference (millions): Ping 7.6/6.1/4.0, Pong 75.5/59.0/39.1, Query 6.3/4.0/2.3, QueryHit 3.5/2.9/1.9;",
		"shape target: every row decreases left to right, and Pong ≫ Ping (reverse-path replies).")
	return res
}

func runIntraAS(cfg RunConfig) Result {
	res := Result{
		Title:   "Share of file exchanges that stay inside one AS",
		Headers: []string{"configuration", "intra-AS file exchange", "downloads", "search success"},
	}
	type variant struct {
		name       string
		cache      int
		biasJoin   bool
		biasSource bool
	}
	variants := []variant{
		{"unbiased", 100, false, false},
		{"oracle at join, cache 100", 100, true, false},
		{"oracle at join, cache 1000", 1000, true, false},
		{"oracle at join + file exchange", 1000, true, true},
	}
	nQueries := cfg.scaled(400)
	for _, v := range variants {
		g := buildGnutella(cfg, "intra-"+v.name, v.cache, v.biasJoin, v.biasSource)
		success, attempts := 0, 0
		for i := 0; i < nQueries; i++ {
			q, ok := g.gen.Next(g.ov.K.Now())
			if !ok {
				break
			}
			attempts++
			r := g.ov.RunSearch(q.From, q.Item)
			if ok, _ := g.ov.Download(r); ok {
				success++
			}
		}
		succ := 0.0
		if attempts > 0 {
			succ = float64(success) / float64(attempts)
		}
		res.Rows = append(res.Rows, []string{
			v.name,
			pct(g.ov.IntraASDownloadFraction()),
			fmt.Sprintf("%d", g.ov.Downloads),
			pct(succ),
		})
	}
	res.Notes = append(res.Notes,
		"paper reference: 6.5% unbiased → 7.3% (cache 100) → 10.02% (cache 1000) → 40.57% when the",
		"oracle is consulted again at the file-exchange stage; shape target: strictly increasing,",
		"with the file-exchange-stage row far above the rest and search success unharmed.")
	return res
}
