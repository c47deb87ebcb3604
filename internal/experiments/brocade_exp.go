package experiments

import (
	"unap2p/internal/core"
	"unap2p/internal/overlay/brocade"
	"unap2p/internal/overlay/kademlia"
	"unap2p/internal/resources"
	"unap2p/internal/sim"
	"unap2p/internal/underlay"
)

func init() {
	register("exp-brocade",
		"Brocade (Table 1) — landmark routing vs flat DHT: wide-area crossings per message",
		runBrocade)
}

func runBrocade(cfg RunConfig) Result {
	res := Result{
		ID:      "exp-brocade",
		Title:   "Cross-domain message delivery: flat Kademlia walk vs supernode landmark routing",
		Headers: []string{"routing", "mean overlay hops", "mean inter-AS crossings", "mean latency (ms)", "messages"},
	}
	src := sim.NewSource(cfg.Seed).Fork("brocade")
	net, hosts := transitStub(src, 2, 10, 25, cfg.scaled(12), 6)
	table := resources.GenerateAll(net, src.Stream("res"))

	// Flat overlay: a Kademlia DHT; delivering to a node = iterative
	// lookup of its ID, every RPC potentially wide-area.
	d := kademlia.New(cfg.newTransportOver(net), nil, kademlia.DefaultConfig(), src.Stream("dht"))
	nodeOf := map[underlay.HostID]*kademlia.Node{}
	for _, h := range hosts {
		nodeOf[h.ID] = d.AddNode(h)
	}
	d.Bootstrap(4)

	// Landmark overlay over the same population.
	b := brocade.Build(cfg.newTransportOver(net), &core.ResourceSelector{Table: table}, hosts)
	cfg.observeHealth("brocade", b.HealthStats)
	cfg.sampleObs()

	// The same cross-domain message workload through both.
	probe := src.Stream("probe")
	type pair struct{ src, dst *underlay.Host }
	var pairs []pair
	for len(pairs) < cfg.scaled(150) {
		a := hosts[probe.Intn(len(hosts))]
		z := hosts[probe.Intn(len(hosts))]
		if a.AS.ID != z.AS.ID {
			pairs = append(pairs, pair{a, z})
		}
	}

	var fHops, fCross, fLat, fMsgs float64
	for _, p := range pairs {
		intraBefore, totalBefore := d.LookupTraffic.Intra(), d.LookupTraffic.Total()
		r := d.Lookup(p.src.ID, nodeOf[p.dst.ID].ID)
		fHops += float64(r.Hops)
		fLat += float64(r.Latency)
		fMsgs += float64(r.Msgs)
		interBytes := (d.LookupTraffic.Total() - totalBefore) - (d.LookupTraffic.Intra() - intraBefore)
		fCross += float64(interBytes) / float64(2*kademlia.RPCBytes) // request+response pairs
	}
	n := float64(len(pairs))
	res.Rows = append(res.Rows, []string{
		"flat Kademlia walk",
		f2(fHops / n), f2(fCross / n), f1(fLat / n), f1(fMsgs / n),
	})

	var bHops, bCross, bLat, bMsgs float64
	for _, p := range pairs {
		st := b.Route(p.src.ID, p.dst.ID)
		bHops += float64(st.Hops)
		bCross += float64(st.InterASCrossings)
		bLat += float64(st.Latency)
		bMsgs += float64(st.Hops)
	}
	res.Rows = append(res.Rows, []string{
		"Brocade landmark routing",
		f2(bHops / n), f2(bCross / n), f1(bLat / n), f1(bMsgs / n),
	})

	res.Notes = append(res.Notes,
		"Brocade's claim: with per-AS supernodes as landmarks, a cross-domain message crosses the",
		"wide area exactly once, where a flat DHT walk's iterative RPCs cross it repeatedly —",
		"fewer inter-AS crossings, fewer messages, lower delivery latency.")
	return res
}
