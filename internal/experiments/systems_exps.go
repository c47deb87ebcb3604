package experiments

import (
	"fmt"

	"unap2p/internal/core"
	"unap2p/internal/geo"
	"unap2p/internal/overlay/bittorrent"
	"unap2p/internal/overlay/geotree"
	"unap2p/internal/overlay/kademlia"
	"unap2p/internal/resources"
	"unap2p/internal/sim"
	"unap2p/internal/skyeye"
	"unap2p/internal/topology"
)

func init() {
	register("exp-bns-swarm",
		"Biased neighbor selection in BitTorrent (Bindal et al.) — traffic vs download time",
		runBNSSwarm)
	register("exp-pns-kademlia",
		"Proximity neighbor selection in Kademlia (Kaune et al.) — lookup latency and inter-AS traffic",
		runPNSKademlia)
	register("exp-geo-search",
		"Geolocation overlay (Globase.KOM-style) — location-constrained search cost",
		runGeoSearch)
	register("exp-skyeye",
		"Information management over-overlay (SkyEye.KOM-style) — oracle view and capacity search",
		runSkyEye)
}

func runBNSSwarm(cfg RunConfig) Result {
	res := Result{
		ID:      "exp-bns-swarm",
		Title:   "BitTorrent swarm: unbiased vs biased tracker",
		Headers: []string{"tracker", "inter-AS MB", "intra-AS share", "mean completion (rounds)", "max completion", "neighbor locality"},
	}
	run := func(biased bool) (bittorrent.Stats, float64) {
		src := sim.NewSource(cfg.Seed).Fork(fmt.Sprintf("bns-%v", biased))
		net, _ := transitStub(src, 2, 8, 20, cfg.scaled(14), 6)
		scfg := bittorrent.DefaultConfig()
		scfg.Pieces = cfg.scaled(48)
		var sel core.Selector
		if biased {
			sel = core.ASHopSelector(net)
		}
		s := bittorrent.NewSwarm(cfg.newTransportOver(net), sel, scfg, src.Stream("swarm"))
		for i, h := range net.Hosts() {
			if i%40 == 0 {
				s.AddSeed(h)
			} else {
				s.AddLeecher(h)
			}
		}
		s.AssignNeighbors()
		name := "unbiased"
		if biased {
			name = "biased"
		}
		cfg.observeHealth("swarm-"+name, s.HealthStats)
		// Per-round sampling turns completion_mean into the download-
		// progress curve; every 5th round keeps the series compact.
		s.OnRound = func() {
			if s.Rounds%5 == 0 {
				cfg.sampleObs()
			}
		}
		s.Run(100000)
		return s.Stats(), s.NeighborASMix()
	}
	for _, biased := range []bool{false, true} {
		name := "unbiased"
		if biased {
			name = "biased (k external)"
		}
		st, mix := run(biased)
		res.Rows = append(res.Rows, []string{
			name,
			f1(float64(st.InterASBytes) / 1e6),
			pct(st.IntraASFraction),
			f1(st.MeanCompletionRound),
			di(st.MaxCompletionRound),
			pct(mix),
		})
	}
	res.Notes = append(res.Notes,
		"Bindal et al. shape: biased neighbor selection cuts cross-ISP piece traffic sharply while",
		"mean download time stays comparable (they report near-parity; we accept within ~2×).")
	return res
}

func runPNSKademlia(cfg RunConfig) Result {
	res := Result{
		ID:      "exp-pns-kademlia",
		Title:   "Kademlia lookups: plain vs proximity neighbor selection",
		Headers: []string{"routing table", "mean hops", "mean lookup latency (ms)", "mean msgs", "intra-AS lookup traffic"},
	}
	run := func(pns bool) (float64, float64, float64, float64) {
		src := sim.NewSource(cfg.Seed).Fork(fmt.Sprintf("pns-%v", pns))
		net, _ := transitStub(src, 2, 10, 25, cfg.scaled(12), 6)
		kcfg := kademlia.DefaultConfig()
		var sel core.Selector
		if pns {
			rtt := core.RTTSelector(net)
			rtt.E.EnableCache(core.CacheConfig{Capacity: 4096})
			sel = rtt
		}
		d := kademlia.New(cfg.newTransportOver(net), sel, kcfg, src.Stream("dht"))
		for _, h := range net.Hosts() {
			d.AddNode(h)
		}
		d.Bootstrap(4)
		name := "plain"
		if pns {
			name = "pns"
		}
		cfg.observeHealth("kademlia-"+name, d.HealthStats)
		probe := src.Stream("probe")
		var hops, lat, msgs float64
		// Measure only the steady-state probe phase, not bootstrap.
		intraBefore, totalBefore := d.LookupTraffic.Intra(), d.LookupTraffic.Total()
		n := cfg.scaled(150)
		for i := 0; i < n; i++ {
			from := d.Nodes()[probe.Intn(len(d.Nodes()))].Host
			r := d.Lookup(from, kademlia.NodeID(probe.Uint64()))
			hops += float64(r.Hops)
			lat += float64(r.Latency)
			msgs += float64(r.Msgs)
			if (i+1)%30 == 0 {
				cfg.sampleObs() // routing-table locality curve
			}
		}
		intra := float64(d.LookupTraffic.Intra()-intraBefore) /
			float64(d.LookupTraffic.Total()-totalBefore)
		return hops / float64(n), lat / float64(n), msgs / float64(n), intra
	}
	for _, pns := range []bool{false, true} {
		name := "plain Kademlia"
		if pns {
			name = "PNS (Kaune et al.)"
		}
		h, l, m, intra := run(pns)
		res.Rows = append(res.Rows, []string{name, f2(h), f1(l), f1(m), pct(intra)})
	}
	res.Notes = append(res.Notes,
		"Kaune et al. shape: PNS lowers lookup latency and raises the intra-AS share of DHT traffic",
		"without increasing hop counts — locality comes from *which* contacts fill the buckets, not",
		"from longer routes.")
	return res
}

func runGeoSearch(cfg RunConfig) Result {
	res := Result{
		ID:      "exp-geo-search",
		Title:   "Location-constrained search over the zone tree",
		Headers: []string{"query radius (km)", "peers found", "zones visited", "messages", "zones visited (full scan)"},
	}
	src := sim.NewSource(cfg.Seed).Fork("geosearch")
	net := topology.Star(8, topology.DefaultConfig())
	topology.PlaceHosts(net, cfg.scaled(40), false, 1, 5, src.Stream("place"))
	tr := geotree.New(cfg.newTransportOver(net), core.GeoSelector{})
	cfg.observeHealth("geotree", tr.HealthStats)
	for i, h := range net.Hosts() {
		tr.Insert(h)
		if (i+1)%10 == 0 {
			cfg.sampleObs() // zone-tree growth curve
		}
	}
	from := net.Hosts()[0]
	center := geo.Coord{Lat: from.Lat, Lon: from.Lon}
	_, worldStats := tr.SearchBox(from, geo.Box{MinLat: -90, MaxLat: 90, MinLon: -180, MaxLon: 180})
	for _, radius := range []float64{50, 200, 1000, 5000} {
		hits, st := tr.SearchBox(from, geo.BoxAround(center, radius))
		res.Rows = append(res.Rows, []string{
			f1(radius), di(len(hits)), di(st.ZonesVisited), di(st.Msgs), di(worldStats.ZonesVisited),
		})
	}
	res.Notes = append(res.Notes,
		"Globase.KOM property: a location-constrained query descends only into zones intersecting",
		"the area — small radii touch a small, roughly constant number of zones while a full scan",
		"visits the whole tree.")
	return res
}

func runSkyEye(cfg RunConfig) Result {
	res := Result{
		ID:      "exp-skyeye",
		Title:   "Over-overlay statistics collection and capacity-based peer search",
		Headers: []string{"quantity", "value"},
	}
	src := sim.NewSource(cfg.Seed).Fork("skyeye")
	net := topology.Star(8, topology.DefaultConfig())
	hosts := topology.PlaceHosts(net, cfg.scaled(30), false, 1, 5, src.Stream("place"))
	tab := resources.GenerateAll(net, src.Stream("res"))
	s := skyeye.Build(net, tab, hosts)
	agg := s.UpdateRound()

	// Cross-check the root view against ground truth.
	var trueMax, trueSum float64
	for _, h := range hosts {
		sc := tab.Get(h.ID).Score()
		trueSum += sc
		if sc > trueMax {
			trueMax = sc
		}
	}
	res.Rows = append(res.Rows,
		[]string{"peers (root view / truth)", fmt.Sprintf("%d / %d", agg.Peers, len(hosts))},
		[]string{"mean score (root view / truth)", fmt.Sprintf("%s / %s", f3(agg.MeanScore), f3(trueSum/float64(len(hosts))))},
		[]string{"max score (root view / truth)", fmt.Sprintf("%s / %s", f3(agg.MaxScore), f3(trueMax))},
		[]string{"update messages per epoch", d(s.Msgs.Value("update"))},
		[]string{"per-peer update path length", di(s.PathLength())},
	)
	// Capacity search: find 5 super-peer candidates.
	found := s.FindCapable(hosts[0], agg.MaxScore*0.5, 5)
	res.Rows = append(res.Rows,
		[]string{"peers found with score ≥ max/2", di(len(found))},
		[]string{"query messages for capacity search", d(s.Msgs.Value("query"))},
	)
	res.Notes = append(res.Notes,
		"SkyEye.KOM property: the root aggregate equals ground truth (lossless aggregation), epoch",
		"cost is O(N) messages with O(log N) per-peer path, and capacity queries prune subtrees",
		"whose aggregated maximum cannot satisfy them.")
	return res
}
