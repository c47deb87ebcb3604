package experiments

import (
	"fmt"

	"unap2p/internal/churn"
	"unap2p/internal/coords"
	"unap2p/internal/core"
	"unap2p/internal/overlay/gnutella"
	"unap2p/internal/overlay/gsh"
	"unap2p/internal/overlay/kademlia"
	"unap2p/internal/resources"
	"unap2p/internal/sim"
	"unap2p/internal/skyeye"
	"unap2p/internal/topology"
	"unap2p/internal/underlay"
	"unap2p/internal/workload"
)

func init() {
	register("exp-gsh-leopard",
		"Leopard-style Geographically Scoped Hashing — local resolution and the no-hot-spot property",
		runGSHLeopard)
	register("exp-superpeer",
		"§2.3 — resource-aware super-peer election vs random: stability under churn",
		runSuperPeer)
	register("abl-pns-metric",
		"Ablation — PNS proximity source: explicit RTT vs Vivaldi prediction vs geolocation",
		runAblPNSMetric)
}

func runGSHLeopard(cfg RunConfig) Result {
	res := Result{
		ID:      "exp-gsh-leopard",
		Title:   "Geographically scoped vs global rendezvous lookups",
		Headers: []string{"scheme", "mean lookup msgs", "mean latency (ms)", "local resolutions", "max registry load", "load mean"},
	}
	src := sim.NewSource(cfg.Seed).Fork("gsh")
	net := topology.Star(8, topology.DefaultConfig())
	hosts := topology.PlaceHosts(net, cfg.scaled(35), false, 1, 5, src.Stream("place"))
	o := gsh.New(cfg.newTransportOver(net), core.GeoSelector{})
	for _, h := range hosts {
		o.Join(h)
	}
	cfg.observeHealth("gsh", o.HealthStats)
	// Every host publishes one item; one blockbuster item is published by
	// every 5th host (globally popular content).
	hot := gsh.HashKey("blockbuster")
	for i, h := range hosts {
		o.Publish(h, gsh.HashKey(fmt.Sprintf("item-%d", i)))
		if i%5 == 0 {
			o.Publish(h, hot)
		}
	}
	// Query workload: 70% of lookups target the blockbuster (available
	// nearby), the rest a random per-host item.
	type outcome struct {
		msgs, local, n int
		latency        sim.Duration
		maxLoad        uint64
		meanLoad       float64
	}
	runScheme := func(global bool) outcome {
		o.ResetLoad()
		q := src.Fork(fmt.Sprintf("queries-%v", global)).Stream("q")
		var out outcome
		nQueries := cfg.scaled(400)
		for i := 0; i < nQueries; i++ {
			req := hosts[q.Intn(len(hosts))]
			k := hot
			if q.Float64() > 0.7 {
				k = gsh.HashKey(fmt.Sprintf("item-%d", q.Intn(len(hosts))))
			}
			var st gsh.LookupStats
			if global {
				_, st = o.GlobalLookup(req, k)
			} else {
				_, st = o.Lookup(req, k)
			}
			out.n++
			out.msgs += st.Msgs
			out.latency += st.Latency
			if st.Level == gsh.MaxLevel {
				out.local++
			}
			if (i+1)%50 == 0 {
				cfg.sampleObs() // registry-load curve for the probe plane
			}
		}
		out.maxLoad, out.meanLoad = o.MaxLoad()
		return out
	}
	for _, global := range []bool{true, false} {
		name := "global rendezvous (plain DHT)"
		if !global {
			name = "geographically scoped (GSH)"
		}
		oc := runScheme(global)
		res.Rows = append(res.Rows, []string{
			name,
			f2(float64(oc.msgs) / float64(oc.n)),
			f1(float64(oc.latency) / float64(oc.n)),
			pct(float64(oc.local) / float64(oc.n)),
			d(oc.maxLoad),
			f1(oc.meanLoad),
		})
	}
	res.Notes = append(res.Notes,
		"Leopard's claims: popular content resolves inside the requester's own zone (local",
		"resolutions high under GSH, impossible under a global rendezvous) and registry load",
		"spreads across zone owners instead of concentrating on one node (max load drops).")
	return res
}

func runSuperPeer(cfg RunConfig) Result {
	res := Result{
		ID:      "exp-superpeer",
		Title:   "Ultrapeer election policy vs overlay stability under churn",
		Headers: []string{"election", "ultrapeer failures", "leaf orphanings", "search success", "mean UP capacity score"},
	}
	type outcome struct {
		upFailures, orphanings int
		success                float64
		meanScore              float64
	}
	runPolicy := func(aware bool) outcome {
		src := sim.NewSource(cfg.Seed).Fork(fmt.Sprintf("superpeer-%v", aware))
		net, hosts := transitStub(src, 2, 8, 20, cfg.scaled(12), 5)
		table := resources.GenerateAll(net, src.Stream("res"))

		// Elect 20% of peers as ultrapeers: capability-aware via the
		// SkyEye view, or uniformly at random.
		ultra := map[underlay.HostID]bool{}
		if aware {
			se := skyeye.Build(net, table, hosts)
			se.UpdateRound()
			for _, id := range resources.ElectSuperPeers(net, table, 0.2, 1) {
				ultra[id] = true
			}
		} else {
			pick := src.Stream("pick")
			for len(ultra) < len(hosts)/5 {
				ultra[hosts[pick.Intn(len(hosts))].ID] = true
			}
		}

		k := sim.NewKernel()
		gcfg := gnutella.DefaultConfig()
		ov := gnutella.New(cfg.newTransport(net, k), nil, gcfg, src.Stream("overlay"))
		ov.SettleTime = 2 * sim.Second
		for _, h := range hosts {
			ov.AddNode(h, ultra[h.ID])
		}
		ov.JoinAll()
		name := "random"
		if aware {
			name = "aware"
		}
		// Kernel-driven sampling catches election churn live: the recorder's
		// sim-time tick sees ultras/online_fraction move as peers cycle.
		cfg.observeHealth("superpeer-"+name, ov.HealthStats)
		catalog := workload.NewCatalog(cfg.scaled(60))
		workload.PopulateZipf(catalog, hosts, 6, 1.0, src.Stream("content"))
		ov.Catalog = catalog

		// Churn sessions follow each peer's own MeanOnlineH (scaled down
		// to simulation time): capable peers are also the stable ones.
		var out outcome
		drv := &churn.Driver{
			Kernel: k,
			ModelFor: func(h *underlay.Host) churn.Model {
				// 1 hour of real uptime ≈ 2 s of simulated session.
				return churn.Exponential{
					MeanOn:  sim.Duration(table.Get(h.ID).MeanOnlineH) * 2 * sim.Second,
					MeanOff: 3 * sim.Second,
				}
			},
			Rand: src.Stream("churn"),
			OnLeave: func(h *underlay.Host) {
				n := ov.Node(h.ID)
				if n.Ultra {
					out.upFailures++
					out.orphanings += n.LeafCount()
				}
				ov.Leave(n)
			},
			OnJoin: func(h *underlay.Host) { ov.Join(ov.Node(h.ID)) },
		}
		cfg.observeChurn(drv)
		drv.Start(hosts)

		success, attempts := 0, 0
		q := src.Stream("queries")
		for round := 0; round < cfg.scaled(40); round++ {
			k.Run(k.Now() + sim.Second)
			from := hosts[q.Intn(len(hosts))]
			if !from.Up {
				continue
			}
			attempts++
			r := ov.RunSearch(from.ID, workload.ItemID(q.Intn(catalog.NumItems)))
			if len(r.Hits) > 0 {
				success++
			}
		}
		if attempts > 0 {
			out.success = float64(success) / float64(attempts)
		}
		var scoreSum float64
		n := 0
		for id := range ultra {
			scoreSum += table.Get(id).Score()
			n++
		}
		out.meanScore = scoreSum / float64(n)
		return out
	}
	for _, aware := range []bool{false, true} {
		name := "random"
		if aware {
			name = "resource-aware (SkyEye view)"
		}
		oc := runPolicy(aware)
		res.Rows = append(res.Rows, []string{
			name, di(oc.upFailures), di(oc.orphanings), pct(oc.success), f3(oc.meanScore),
		})
	}
	res.Notes = append(res.Notes,
		"§2.3: 'using peer resources information allows for a more accurate super-peer selection",
		"process, and therefore a more stable system' — aware election picks long-uptime peers, so",
		"ultrapeer failures and leaf orphanings drop and search success holds up under churn.")
	return res
}

func runAblPNSMetric(cfg RunConfig) Result {
	res := Result{
		ID:      "abl-pns-metric",
		Title:   "PNS routing tables filled by different proximity sources",
		Headers: []string{"proximity source", "mean lookup latency (ms)", "mean hops", "latency vs plain"},
	}
	src := sim.NewSource(cfg.Seed).Fork("pnsmetric")
	net, hosts := transitStub(src, 2, 10, 25, cfg.scaled(12), 6)

	// A converged Vivaldi system to serve as the predictive source. Run
	// it in sampled slices so a probe records the convergence curve —
	// the time series Dabek et al. judge coordinate systems by.
	rtt := func(i, j int) float64 { return float64(net.RTT(hosts[i], hosts[j])) }
	vs := coords.NewVivaldiSystem(len(hosts), rtt, src.Stream("vivaldi"))
	cfg.observeHealth("vivaldi", vs.HealthStats)
	for r := 0; r < 150; r += 10 {
		vs.Run(10)
		cfg.sampleObs()
	}
	vidx := map[underlay.HostID]int{}
	for i, h := range hosts {
		vidx[h.ID] = i
	}

	run := func(name string, sel core.Selector) (float64, float64) {
		kcfg := kademlia.DefaultConfig()
		// Small buckets overflow often, so the replacement policy (where
		// PNS acts) decides most table entries.
		kcfg.K = 4
		d := kademlia.New(cfg.newTransportOver(net), sel, kcfg, sim.NewSource(cfg.Seed).Fork("dht-"+name).Stream("dht"))
		for _, h := range hosts {
			d.AddNode(h)
		}
		d.Bootstrap(4)
		cfg.observeHealth("kademlia-"+name, d.HealthStats)
		probe := sim.NewSource(99).Stream("probe")
		var lat, hops float64
		n := cfg.scaled(120)
		for i := 0; i < n; i++ {
			from := d.Nodes()[probe.Intn(len(d.Nodes()))].Host
			r := d.Lookup(from, kademlia.NodeID(probe.Uint64()))
			lat += float64(r.Latency)
			hops += float64(r.Hops)
			if (i+1)%30 == 0 {
				cfg.sampleObs()
			}
		}
		return lat / float64(n), hops / float64(n)
	}

	plainLat, plainHops := run("plain", nil)
	res.Rows = append(res.Rows, []string{"none (plain Kademlia)", f1(plainLat), f2(plainHops), "—"})
	variants := []struct {
		name string
		sel  *core.EngineSelector
	}{
		{"explicit RTT", core.RTTSelector(net)},
		{"Vivaldi prediction", core.FuncSelector(net, core.Latency, core.PredictionMethod,
			func(a, b *underlay.Host) (float64, bool) {
				return vs.Predict(vidx[a.ID], vidx[b.ID]), true
			})},
		{"geolocation distance", core.GeoDistanceSelector(net)},
	}
	for _, v := range variants {
		// Memoize the pure proximity scores; invisible to results, cheaper
		// on repeated pair lookups during bucket replacement.
		v.sel.E.EnableCache(core.CacheConfig{Capacity: 4096})
		lat, hops := run(v.name, v.sel)
		res.Rows = append(res.Rows, []string{
			v.name, f1(lat), f2(hops), pct((plainLat - lat) / plainLat),
		})
	}
	res.Notes = append(res.Notes,
		"the §3 collection techniques plugged into one §4 usage: explicit measurement gives PNS its",
		"full benefit; prediction-based sources (Vivaldi, geolocation) recover part of it with none",
		"of the per-pair probing, losing exactly their prediction error (§2.4's caveat for geo).")
	return res
}
