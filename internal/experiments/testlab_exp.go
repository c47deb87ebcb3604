package experiments

import (
	"fmt"

	"unap2p/internal/core"
	"unap2p/internal/overlay/gnutella"
	"unap2p/internal/sim"
	"unap2p/internal/topology"
	"unap2p/internal/underlay"
	"unap2p/internal/workload"
)

func init() {
	register("exp-testlab",
		"Testlab of Aggarwal et al. §5 — 4 topologies × {unbiased, oracle}, 45 GTK-Gnutella nodes, 270 files",
		runTestlab)
}

// testlabTopology builds one of the four 5-AS router topologies with
// 9 Gnutella nodes per AS: 3 "machines" each running 1 ultrapeer and
// 2 leaves, exactly as in the testlab.
func testlabTopology(kind string, src *sim.Source) (*underlay.Network, []*underlay.Host, []bool) {
	cfg := topology.Config{IntraDelay: 2, LinkDelay: 10, Rand: src.Stream("topo")}
	var net *underlay.Network
	switch kind {
	case "ring":
		net = topology.Ring(5, cfg)
	case "star":
		// Star of 5 ASes total: hub + 4 leaves would host unevenly; the
		// testlab's star has 5 routers with one center, all hosting nodes.
		net = topology.Star(5, cfg)
	case "tree":
		net = topology.Tree(5, 2, cfg)
	case "mesh":
		net = topology.Mesh(5, 2.4, cfg)
	default:
		panic("unknown testlab topology " + kind)
	}
	var hosts []*underlay.Host
	var ultra []bool
	place := src.Stream("place")
	for _, as := range net.ASes() {
		// 3 machines × 3 servents; machine access delay shared.
		for m := 0; m < 3; m++ {
			access := sim.Duration(1 + place.Float64()*2)
			for s := 0; s < 3; s++ {
				h := net.AddHost(as, access)
				h.Lat, h.Lon = place.Float64()*10, place.Float64()*10
				hosts = append(hosts, h)
				ultra = append(ultra, s == 0)
			}
		}
	}
	return net, hosts, ultra
}

type testlabOutcome struct {
	queries, hits uint64
	failed        int
	intraAS       float64
}

// runTestlabOnce runs one (topology, bias, distribution) cell: every node
// floods one search for its own query string (a uniquely assigned item)
// and downloads from a hit.
func runTestlabOnce(cfg RunConfig, kind string, biased bool, uniform bool, seed int64) testlabOutcome {
	src := sim.NewSource(seed).Fork(fmt.Sprintf("testlab-%s-%v-%v", kind, biased, uniform))
	net, hosts, ultra := testlabTopology(kind, src)

	gcfg := gnutella.DefaultConfig()
	gcfg.UltraDegree = 3
	gcfg.MaxUltraDegree = 6
	gcfg.LeafParents = 1
	gcfg.HostcacheSize = 20
	gcfg.QueryTTL = 5 // small network: floods cover it, as in the testlab
	var sel core.Selector
	if biased {
		sel = core.NewOracleSelector(net, true, true)
	}
	ov := cfg.joinGnutella(net, hosts, func(i int) bool { return ultra[i] }, sel, gcfg, src.Stream("overlay"))

	// 270 unique files. Uniform scheme: each node shares 6 files.
	// Variable scheme: ultrapeers share 12, half the leaves 6, rest none.
	catalog := workload.NewCatalog(270)
	ov.Catalog = catalog
	next := 0
	place := func(h *underlay.Host, n int) {
		for i := 0; i < n; i++ {
			catalog.Place(workload.ItemID(next%270), h.ID)
			next++
		}
	}
	leafToggle := false
	for i, h := range hosts {
		switch {
		case uniform:
			place(h, 6)
		case ultra[i]:
			place(h, 12)
		default:
			if leafToggle {
				place(h, 6)
			}
			leafToggle = !leafToggle
		}
	}

	// 45 unique search strings, one per node; each node searches for an
	// item it does not itself share (searching your own shared file is a
	// no-op in Gnutella's semantics).
	var out testlabOutcome
	search := src.Stream("search")
	for _, h := range hosts {
		var item workload.ItemID
		for {
			item = workload.ItemID(search.Intn(270))
			if !catalog.Has(h.ID, item) {
				break
			}
		}
		res := ov.RunSearch(h.ID, item)
		if len(res.Hits) == 0 {
			out.failed++
			continue
		}
		ov.Download(res)
	}
	out.queries = ov.Msgs.Value("query")
	out.hits = ov.Msgs.Value("queryhit")
	out.intraAS = ov.IntraASDownloadFraction()
	return out
}

func runTestlab(cfg RunConfig) Result {
	res := Result{
		Title:   "Gnutella testlab: message counts and search success across topologies",
		Headers: []string{"topology", "scheme", "mode", "Query msgs", "QueryHit msgs", "failed searches", "intra-AS dl"},
	}
	for _, kind := range []string{"ring", "star", "tree", "mesh"} {
		for _, uniform := range []bool{true, false} {
			scheme := "uniform"
			if !uniform {
				scheme = "variable"
			}
			for _, biased := range []bool{false, true} {
				mode := "unbiased"
				if biased {
					mode = "oracle"
				}
				o := runTestlabOnce(cfg, kind, biased, uniform, cfg.Seed)
				res.Rows = append(res.Rows, []string{
					kind, scheme, mode, d(o.queries), d(o.hits), di(o.failed), pct(o.intraAS),
				})
			}
		}
	}
	res.Notes = append(res.Notes,
		"testlab reference: 45 nodes (15 ultrapeers + 30 leaves) over 5 ASes, 270 unique files,",
		"45 searches; biased neighbor selection must not cause search failures that the unbiased",
		"run would not have, while raising intra-AS downloads and typically lowering Query traffic.")
	return res
}
