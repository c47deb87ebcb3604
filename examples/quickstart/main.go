// Quickstart: build a simulated Internet, compose underlay-awareness
// into a core.Selector, and inject it into an overlay next to the
// transport — the control plane and the data plane of unap2p in one
// screen. Biased neighbor selection localizes the overlay; the score
// cache and the awareness counters show what that bias costs.
//
// Run with: go run ./examples/quickstart
//
// With -record run.jsonl a telemetry Recorder rides along and writes a
// run file; record two seeds and compare them with
// `go run ./cmd/unapctl diff`. With -probe N the recorder samples
// every N simulated milliseconds and the Vivaldi convergence curve is
// printed as a sparkline at exit.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"unap2p/internal/coords"
	"unap2p/internal/core"
	"unap2p/internal/ipmap"
	"unap2p/internal/metrics"
	"unap2p/internal/oracle"
	"unap2p/internal/overlay/gnutella"
	"unap2p/internal/sim"
	"unap2p/internal/telemetry"
	"unap2p/internal/topology"
	"unap2p/internal/transport"
	"unap2p/internal/underlay"
)

func main() {
	seed := flag.Int64("seed", 42, "simulation seed")
	record := flag.String("record", "", "write a telemetry run file (JSONL) here")
	probeMS := flag.Float64("probe", 0, "sample every N simulated ms and print the Vivaldi convergence curve")
	flag.Parse()

	// 0. Optional observability: a Recorder is a pure observer, so the
	// numbers below are identical with or without it. With -probe it
	// also samples on a sim-time tick — still a pure observer.
	var rec *telemetry.Recorder
	if *record != "" || *probeMS > 0 {
		cfg := telemetry.Config{Interval: sim.Duration(*probeMS)}
		if *record != "" {
			f, err := os.Create(*record)
			if err != nil {
				log.Fatal(err)
			}
			defer f.Close()
			cfg.Sink = telemetry.NewRunWriter(f)
			cfg.Manifest = telemetry.Manifest{Name: "quickstart", Seed: *seed, Scale: 1}
		}
		rec = telemetry.NewRecorder(cfg)
	}

	// 1. An underlay: 2 transit ISPs, 8 local ISPs, 10 hosts each.
	src := sim.NewSource(*seed)
	net := topology.TransitStub(topology.TransitStubConfig{
		Config:   topology.Config{IntraDelay: 5, LinkDelay: 20, Rand: src.Stream("topo")},
		Transits: 2,
		Stubs:    8,
	})
	hosts := topology.PlaceHosts(net, 10, false, 1, 5, src.Stream("place"))
	plan := ipmap.AssignAll(net)
	fmt.Println("underlay:", topology.Describe(net))

	// 2. Collection: an IP-to-ISP mapping service and an ISP oracle — two
	// of the Figure 3 techniques — combined into one engine with a
	// memoized score cache, then wrapped as the Selector every overlay
	// accepts at construction.
	registry := ipmap.NewRegistry(net, plan)
	orc := oracle.New(net)
	engine := core.NewEngine().
		Add(&core.IPMapEstimator{Reg: registry}, 1).
		Add(&core.OracleEstimator{O: orc, U: net}, 1)
	engine.EnableCache(core.CacheConfig{Capacity: 4096})
	sel := core.NewEngineSelector(engine, net)

	// 3. Usage: the same Gnutella overlay twice — once fully unaware
	// (nil selector), once with the selector injected beside the
	// transport. The selector biases each node's neighbor choices while
	// the transport carries (and counts) every protocol message.
	build := func(s core.Selector, label string) {
		k := sim.NewKernel()
		tr := transport.New(net, k)
		if rec != nil {
			rec.ObserveTransport(tr)
			rec.ObserveKernel(k) // with -probe, starts the sim-time sampling tick
		}
		if s != nil {
			// Unified accounting: collection overhead lands in the same
			// counter set as the protocol traffic.
			engine.RouteOverhead(tr.Counters())
		}
		ov := gnutella.New(tr, s, gnutella.DefaultConfig(), src.Fork(label).Stream("overlay"))
		for i, h := range hosts {
			ov.AddNode(h, i%4 == 0) // every 4th host an ultrapeer
		}
		ov.JoinAll()
		ov.Ping(hosts[0].ID) // one ping flood exercises the data plane
		edges := ov.Edges()
		labels := make([]int, net.NumHosts())
		for _, h := range net.Hosts() {
			labels[h.ID] = h.AS.ID
		}
		fmt.Printf("%-16s %5.1f%% intra-ISP edges, %d components, %d pings, %d awareness lookups\n",
			label+":",
			100*metrics.IntraASEdgeFraction(edges, labels),
			metrics.ComponentCount(net.NumHosts(), edges),
			tr.Counters().Value("ping"),
			tr.Counters().Value(core.OverheadCounterName(core.ISPComponent))+
				tr.Counters().Value(core.OverheadCounterName(core.IPToISPMapping)))
	}
	build(nil, "unaware")
	build(sel, "underlay-aware")

	// Re-ranking pairs the joins already scored is free now: biased
	// source selection over the whole population hits the warm cache.
	holders := make([]underlay.HostID, 0, len(hosts)-1)
	for _, h := range hosts[1:] {
		holders = append(holders, h.ID)
	}
	best, _ := sel.SelectSource(hosts[0], holders)
	fmt.Printf("closest source for h%d: h%d (same ISP: %v)\n",
		hosts[0].ID, best, net.Host(best).AS.ID == hosts[0].AS.ID)
	fmt.Printf("score cache: %v\n", engine.CacheStats())

	// 4. Or let the framework wire itself: Bootstrap builds the same kind
	// of engine (registry + Vivaldi) in one call; wrap it in an
	// EngineSelector to hand it to any overlay.
	auto := core.Bootstrap(net, src.Fork("auto"))
	autoSel := core.NewEngineSelector(auto, net)
	a, b := hosts[0], hosts[1]
	cost, _ := autoSel.Proximity(a, b)
	fmt.Printf("bootstrap engine: %d estimators, overhead %d, cost(h%d,h%d)=%.1f\n",
		len(auto.Estimators()), auto.TotalOverhead(), a.ID, b.ID, cost)

	// 5. Observability: converge a Vivaldi coordinate system over the same
	// hosts, sampling embedding quality each round through the recorder —
	// then read the convergence curve back out of its in-memory series.
	if *probeMS > 0 {
		rtt := func(i, j int) float64 { return float64(net.RTT(hosts[i], hosts[j])) }
		vs := coords.NewVivaldiSystem(len(hosts), rtt, src.Stream("vivaldi"))
		rec.ObserveHealth("vivaldi", vs.HealthStats)
		const rounds = 60
		for r := 0; r < rounds; r++ {
			vs.Round()
			rec.Sample()
		}
		// Kernel-tick samples taken before the Vivaldi phase lack the
		// metric (they render as leading spaces); trim to the finite tail
		// for the first→last numbers.
		curve := rec.Series().Values("health:vivaldi:median_rel_error")
		finite := curve[:0:0]
		for _, v := range curve {
			if v == v { // not NaN
				finite = append(finite, v)
			}
		}
		fmt.Printf("vivaldi convergence (median relative error, %d rounds):\n  %s  %.3f → %.3f\n",
			rounds, telemetry.Sparkline(finite, rounds), finite[0], finite[len(finite)-1])
	}

	if *record != "" {
		if err := rec.Close(); err != nil {
			log.Fatal(err)
		}
		sum := rec.Summary()
		fmt.Printf("recorded %d events, %d samples, %d metrics to %s\n",
			sum.Events, sum.Samples, len(sum.Metrics.Flatten()), *record)
	}
}
