package experiments

import (
	"fmt"

	"unap2p/internal/cdn"
	"unap2p/internal/coords"
	"unap2p/internal/core"
	"unap2p/internal/geo"
	"unap2p/internal/ipmap"
	"unap2p/internal/oracle"
	"unap2p/internal/resources"
	"unap2p/internal/sim"
	"unap2p/internal/underlay"
)

func init() {
	register("fig3-taxonomy",
		"Figure 3 — classification of underlay information and its collection, live inventory",
		runFig3)
	register("tab1-systems",
		"Paper Table 1 — underlay-aware systems per information kind, smoke-run",
		runTab1Systems)
}

// buildEstimators instantiates one estimator per Figure 3 method over a
// shared demo network, exercising each collection path.
func buildEstimators(cfg RunConfig) (*underlay.Network, []core.Estimator) {
	src := sim.NewSource(cfg.Seed).Fork("fig3")
	net, hosts := transitStub(src, 2, 8, 20, 8, 6)
	plan := ipmap.AssignAll(net)

	// ISP-location estimators.
	reg := ipmap.NewRegistry(net, plan)
	orc := oracle.New(net)
	cdnNet := cdn.Deploy(net, []int{2, 5, 8}, src.Stream("cdn"))
	maps := map[underlay.HostID]cdn.RatioMap{}
	for _, h := range hosts {
		maps[h.ID] = cdnNet.ObserveRatioMap(h, 30)
	}

	// Latency estimators.
	rttFn := func(i, j int) float64 { return float64(net.RTT(hosts[i], hosts[j])) }
	vs := coords.NewVivaldiSystem(len(hosts), rttFn, src.Stream("vivaldi"))
	vs.Run(60)
	vidx := map[underlay.HostID]int{}
	for i, h := range hosts {
		vidx[h.ID] = i
	}
	const nBeacons = 6
	dm, delaysOf := beacons(rttFn, nBeacons, 5)
	ics, err := coords.BuildICS(dm, coords.ICSOptions{VarThreshold: 0.95})
	if err != nil {
		panic(err)
	}
	icsCoords := map[underlay.HostID][]float64{}
	for i, h := range hosts {
		icsCoords[h.ID], _ = ics.HostCoord(delaysOf(i))
	}

	// Geolocation estimators.
	gpsRand := src.Stream("gps")
	gpsPos := map[underlay.HostID]geo.Coord{}
	rcv := geo.GPSReceiver{AccuracyM: 5}
	for _, h := range hosts {
		gpsPos[h.ID] = rcv.Fix(geo.Coord{Lat: h.Lat, Lon: h.Lon}, gpsRand)
	}
	ipPos := map[underlay.HostID]geo.Coord{}
	for _, h := range hosts {
		if c, ok := reg.LocationOf(h.IP); ok {
			ipPos[h.ID] = c
		}
	}

	// Peer resources.
	table := resources.GenerateAll(net, src.Stream("res"))

	ests := []core.Estimator{
		&core.IPMapEstimator{Reg: reg},
		&core.OracleEstimator{O: orc, U: net},
		&core.CDNEstimator{Maps: maps, Observations: cdnNet.Redirections},
		&core.RTTEstimator{U: net},
		&core.VivaldiEstimator{S: vs, Index: vidx},
		&core.ICSEstimator{ICS: ics, Coords: icsCoords, Measurements: uint64(len(hosts) * nBeacons)},
		&core.GeoEstimator{Positions: gpsPos, Via: core.GPS, Fixes: uint64(len(gpsPos))},
		&core.GeoEstimator{Positions: ipPos, Via: core.IPToLocationMapping, Fixes: uint64(len(ipPos))},
		&core.ResourceEstimator{Table: table, UpdateMsgs: uint64(len(hosts))},
	}
	return net, ests
}

func runFig3(cfg RunConfig) Result {
	res := Result{
		Title:   "Underlay information kinds and their collection methods (instantiated)",
		Headers: []string{"information", "collection method", "estimate(sample pair)", "overhead"},
	}
	net, ests := buildEstimators(cfg)
	a := net.HostsInAS(2)[0]
	b := net.HostsInAS(3)[0]
	for _, e := range ests {
		val, ok := e.Estimate(a, b)
		cell := "miss"
		if ok {
			cell = f2(val)
		}
		res.Rows = append(res.Rows, []string{
			e.Kind().String(), e.Method().String(), cell, d(e.Overhead()),
		})
	}
	// Verify the registry covers the whole Figure 3 taxonomy.
	covered := map[core.Method]bool{}
	for _, e := range ests {
		covered[e.Method()] = true
	}
	missing := 0
	for _, methods := range core.Taxonomy() {
		for _, m := range methods {
			if !covered[m] {
				missing++
			}
		}
	}
	res.Notes = append(res.Notes,
		fmt.Sprintf("taxonomy coverage: %d/8 Figure 3 methods instantiated (%d missing).", 8-missing, missing),
		"prediction methods answer with zero marginal probes; explicit measurement pays per estimate.")
	return res
}

func runTab1Systems(cfg RunConfig) Result {
	res := Result{
		Title:   "Representative underlay-aware systems implemented in unap2p",
		Headers: []string{"information", "paper's examples", "unap2p implementation", "package"},
	}
	rows := [][4]string{
		{"ISP-location", "BNS (Bindal)", "biased tracker swarm", "internal/overlay/bittorrent"},
		{"ISP-location", "Oracle (Aggarwal)", "ISP oracle + biased Gnutella", "internal/oracle, internal/overlay/gnutella"},
		{"ISP-location", "P4P (Xie)", "policy (pDistance) ranking", "internal/oracle"},
		{"ISP-location", "Ono (Choffnes)", "CDN ratio-map inference", "internal/cdn"},
		{"ISP-location", "Proximity in Kademlia (Kaune)", "PNS k-buckets", "internal/overlay/kademlia"},
		{"ISP-location", "LTM (Liu) / MBC (Zhang)", "measurement-driven topology matching", "internal/overlay/gnutella (AdaptRound)"},
		{"Latency", "Vivaldi (Dabek)", "spring-relaxation coordinates", "internal/coords"},
		{"Latency", "ICS (Lim)", "PCA/landmark coordinates", "internal/coords, internal/linalg"},
		{"Latency", "Landmark proximity (Ratnasamy)", "landmark-ordering bins", "internal/coords"},
		{"Latency", "Proximity in DHTs (Castro)", "Chord with proximity-selected fingers", "internal/overlay/chord"},
		{"Latency", "Leopard (Yu)", "geographically scoped hashing, no hot spot", "internal/overlay/gsh"},
		{"ISP-location", "Brocade (Zhao)", "per-AS supernode landmark routing", "internal/overlay/brocade"},
		{"Geolocation", "Globase.KOM (Kovacevic)", "zone-tree geo overlay + search", "internal/overlay/geotree"},
		{"Geolocation", "GeoPeer (Araujo)", "geocast + bounding-box primitives", "internal/overlay/geotree, internal/geo"},
		{"Peer Resources", "SkyEye.KOM (Graffi)", "aggregation over-overlay", "internal/skyeye"},
		{"Peer Resources", "Bandwidth-aware (da Silva)", "P2P-TV mesh with capacity-weighted parents", "internal/overlay/streaming"},
		{"Peer Resources", "Super-peer election (§2.3)", "capacity-scored ultrapeers", "internal/resources"},
	}
	for _, r := range rows {
		res.Rows = append(res.Rows, []string{r[0], r[1], r[2], r[3]})
	}
	res.Notes = append(res.Notes,
		"each row is a working implementation exercised by its package tests and by the other experiments;",
		"this regenerates the paper's Table 1 as a live inventory rather than a citation list.")
	return res
}
