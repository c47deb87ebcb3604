// exp-megascale: the sharded-kernel scaling study. A compact overlay —
// Kademlia, Chord, or Gnutella, all ports of the megascale.CompactOverlay
// contract — runs its workload under churn at a sweep of population
// sizes on a K-shard lock-step kernel, reporting a peers-vs-simulated-
// cost scaling curve. This is the experiment that demonstrates the
// megascale headroom ROADMAP items 2–5 build on — D-P2P-Sim+ (PAPERS.md)
// exists because single-threaded P2P simulators cap out near testlab
// scale; the sharded kernel removes that cap while keeping runs
// byte-identical per (seed, shard count, overlay). Sweeping
// -param overlay=all turns it into the structured-vs-unstructured
// comparison under identical underlay and churn.
package experiments

import (
	"fmt"
	"strings"

	"unap2p/internal/megascale"
	"unap2p/internal/overlay/chord"
	"unap2p/internal/overlay/gnutella"
	"unap2p/internal/overlay/kademlia"
	"unap2p/internal/sim"
	"unap2p/internal/topology"
	"unap2p/internal/transport"
	"unap2p/internal/underlay"
)

func init() {
	register("exp-megascale",
		"Sharded-kernel scaling — compact overlay (kademlia|chord|gnutella) under churn, peers vs events/exactness",
		runMegascale)
}

// megascaleOverlays is the sweep order for -param overlay=all.
var megascaleOverlays = []string{"kademlia", "chord", "gnutella"}

// megascalePoint is one (overlay, size) point of the sweep.
type megascalePoint struct {
	overlay     string
	peers       int
	events      uint64
	epochs      uint64
	crossBytes  uint64
	lateEvents  uint64
	lookups     uint64
	successRate float64
	meanHops    float64
	simEnd      sim.Time
}

// runMegascale sweeps population sizes up to Params["peers"] (default
// 20000×Scale) over Params["shards"] shards (default 4) for each overlay
// named by Params["overlay"] (kademlia, chord, gnutella, a comma list,
// or "all"; default kademlia) and reports the scaling curve. Everything
// it reports is a pure function of (seed, peers, shards, overlay); the
// wall-clock and peak-RSS cost of a population is measured by the bench
// mega workloads, each in a process of its own.
func runMegascale(cfg RunConfig) Result {
	var notes []string
	maxPeers := cfg.paramInt("peers", cfg.scaled(20000), &notes)
	if maxPeers < 100 {
		maxPeers = 100
	}
	shards := cfg.paramInt("shards", 4, &notes)
	if shards < 1 {
		shards = 1
	}

	ovParam := cfg.param("overlay", "kademlia")
	var overlays []string
	if ovParam == "all" {
		overlays = megascaleOverlays
	} else {
		for _, name := range strings.Split(ovParam, ",") {
			name = strings.TrimSpace(name)
			switch name {
			case "kademlia", "chord", "gnutella":
				overlays = append(overlays, name)
			case "":
			default:
				notes = append(notes, fmt.Sprintf("unknown overlay %q skipped (want kademlia|chord|gnutella|all)", name))
			}
		}
	}
	if len(overlays) == 0 {
		overlays = []string{"kademlia"}
	}

	// Three-point sweep toward the target population.
	sizes := []int{maxPeers / 4, maxPeers / 2, maxPeers}
	if sizes[0] < 100 {
		sizes = []int{maxPeers}
	}

	var points []megascalePoint
	for _, name := range overlays {
		for _, n := range sizes {
			points = append(points, runMegascalePoint(cfg, name, n, shards))
		}
	}

	res := Result{
		Title: fmt.Sprintf("sharded-kernel scaling, K=%d shards, overlay=%s", shards, strings.Join(overlays, "+")),
		Headers: []string{"overlay", "peers", "events", "epochs", "xbytes", "late",
			"lookups", "exact", "hops", "sim_end"},
		Notes: notes,
	}
	for _, p := range points {
		res.Rows = append(res.Rows, []string{
			p.overlay,
			di(p.peers), d(p.events), d(p.epochs), d(p.crossBytes), d(p.lateEvents),
			d(p.lookups), pct(p.successRate), f2(p.meanHops),
			fmt.Sprintf("%.0fms", float64(p.simEnd)),
		})
	}
	res.Notes = append(res.Notes,
		"runs are byte-identical per (seed, shards, overlay); K=1 reproduces the single-kernel schedule bit-for-bit",
		"exact = ground-truth success: globally XOR-closest (kademlia), exact ring predecessor (chord), query hit (gnutella)",
	)
	for _, name := range overlays {
		var last megascalePoint
		for _, p := range points {
			if p.overlay == name {
				last = p
			}
		}
		res.Notes = append(res.Notes,
			fmt.Sprintf("%s largest point: %d peers, %d events, %.1f%% ground-truth success",
				name, last.peers, last.events, 100*last.successRate))
		if last.lateEvents > 0 {
			res.Notes = append(res.Notes,
				fmt.Sprintf("WARNING: %s: %d late cross-shard events — epoch window exceeded lookahead", name, last.lateEvents))
		}
	}
	return res
}

// buildMegascaleOverlay constructs the named compact overlay over the
// sharded net, registering its own request/reply traffic classes so a
// multi-overlay sweep keeps per-overlay accounting.
func buildMegascaleOverlay(name string, snet *transport.ShardedNet, seed uint64) megascale.CompactOverlay {
	req := snet.RegisterClass(name + ":req")
	rep := snet.RegisterClass(name + ":rep")
	switch name {
	case "kademlia":
		return kademlia.NewCompact(snet, kademlia.DefaultCompactConfig(), seed, req, rep)
	case "chord":
		return chord.NewCompactRing(snet, chord.DefaultCompactConfig(), seed, req, rep)
	case "gnutella":
		return gnutella.NewCompactFlood(snet, gnutella.DefaultCompactConfig(), seed, req, rep)
	}
	panic("exp-megascale: unknown overlay " + name)
}

// runMegascalePoint builds and runs one (overlay, population) point end
// to end.
func runMegascalePoint(cfg RunConfig, overlay string, peers, shards int) megascalePoint {
	src := sim.NewSource(cfg.Seed).Fork("megascale")
	seed := uint64(cfg.Seed)*0x9e3779b97f4a7c15 + uint64(peers)

	// Underlay: two-tier transit/stub Internet sized so stubs hold a few
	// thousand peers each at the top size.
	stubs := peers / 2000
	if stubs < 8 {
		stubs = 8
	}
	if stubs > 512 {
		stubs = 512
	}
	transits := stubs / 16
	if transits < 2 {
		transits = 2
	}
	net := topology.TransitStub(topology.TransitStubConfig{
		Config:          topology.Config{IntraDelay: 5, LinkDelay: 20, Rand: src.Stream("topo")},
		Transits:        transits,
		Stubs:           stubs,
		MultihomeProb:   0.2,
		StubPeeringProb: 0.1,
	})
	net.ComputeRoutes() // sharded runs must never lazily compute routes

	// Compact SoA peer state: peers spread over stub ASes by hash, with
	// a small deterministic access-delay spread.
	stubASes := make([]int, 0, stubs)
	for _, a := range net.ASes() {
		if a.Kind == underlay.LocalISP {
			stubASes = append(stubASes, a.ID)
		}
	}
	pt := underlay.NewPeerTable(net, peers)
	for i := 0; i < peers; i++ {
		h := megascale.Mix64(seed ^ uint64(i)<<1)
		as := stubASes[int(h%uint64(len(stubASes)))]
		pt.AddPeer(as, sim.Duration(2+h>>32%8))
	}
	part := underlay.PartitionASes(net.NumASes(),
		func(as int) int { return pt.PeersPerAS()[int32(as)] }, shards)

	// Epoch window = the conservative lookahead bound.
	window := underlay.MinCrossShardLatency(pt, part)
	if window <= 0 {
		window = 10
	}
	sk := sim.NewSharded(part.NumShards(), window)
	cfg.observeSharded(sk)

	snet := transport.NewShardedNet(net, pt, part, sk, nil)
	ov := buildMegascaleOverlay(overlay, snet, seed^0xd417)
	ov.Bootstrap(seed ^ 0x5eed)
	cfg.observeHealth("megascale", ov.HealthStats)
	cfg.observeHealth("shardednet", snet.HealthStats)

	// Churn: ~20% of peers cycle with 5-minute sessions and 2-minute
	// absences. K-independent by construction (stateless per-peer draws).
	drv := megascale.AttachChurn(snet, seed^0xc42, megascale.ChurnConfig{
		Frac: 5, MeanOn: 300_000 * sim.Millisecond, MeanOff: 120_000 * sim.Millisecond,
	})
	cfg.observeHealth("megachurn", func() map[string]float64 {
		return map[string]float64{
			"joins":  float64(drv.Joins()),
			"leaves": float64(drv.Leaves()),
			"online": float64(pt.UpCount()),
		}
	})

	// Workload: a deterministic subset of peers each issue one request
	// for a per-peer pseudo-random key, spread over the first 60 s.
	const horizon = 120_000 * sim.Millisecond
	stride := peers / 2000
	if stride < 1 {
		stride = 1
	}
	for p := 0; p < peers; p += stride {
		p := underlay.PeerID(p)
		qseed := seed ^ 0x700c ^ uint64(p)
		at := sim.Duration(megascale.Mix64(seed^0x7111^uint64(p))%60_000) * sim.Millisecond
		sk.Shard(part.ShardOf(pt, p)).At(at, func() {
			ov.Query(p, qseed, nil)
		})
	}

	// Sample observers at epoch barriers with a stride, so run files get
	// convergence curves without a sample per epoch.
	var barriers uint64
	sk.OnBarrier = func(now sim.Time) {
		barriers++
		if barriers%64 == 0 {
			cfg.sampleObs()
		}
	}

	end := sk.Run(horizon)

	st := sk.Stats()
	ls := ov.MegaStats()
	var crossBytes uint64
	for _, sh := range st.Shards {
		crossBytes += sh.CrossBytes
	}
	return megascalePoint{
		overlay:     overlay,
		peers:       peers,
		events:      st.Processed,
		epochs:      st.Epochs,
		crossBytes:  crossBytes,
		lateEvents:  st.LateEvents,
		lookups:     ls.Done,
		successRate: ls.SuccessRate(),
		meanHops:    ls.MeanHops(),
		simEnd:      end,
	}
}
