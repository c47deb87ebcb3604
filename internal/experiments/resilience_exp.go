package experiments

import (
	"fmt"

	"unap2p/internal/chaos"
	"unap2p/internal/overlay/kademlia"
	"unap2p/internal/resilience"
	"unap2p/internal/sim"
	"unap2p/internal/underlay"
)

func init() {
	register("exp-resilience",
		"Self-healing under fault injection — detection/eviction latency and post-fault lookup recovery",
		runResilience)
}

// runResilience replays the chaos suite's standard campaign — a 30%
// loss burst at [500, 1500) ms and a three-peer crash wave at 2 s —
// against a Kademlia DHT wired to the failure detector, and reports the
// per-victim detection timeline plus the lookup success rate before
// and after the faults. Recorded with sampling on (`unapctl run -probe`),
// the detector and overlay health curves become the time-to-recover
// series EXPERIMENTS.md plots.
func runResilience(cfg RunConfig) Result {
	src := sim.NewSource(cfg.Seed).Fork("resilience")
	net, hosts := transitStub(src, 2, 8, 20, cfg.scaled(5), 5)
	k := sim.NewKernel()
	tr := cfg.newTransport(net, k)
	tr.Retry = resilience.Backoff{Base: 50, Max: 400, Factor: 2}.Policy(2)

	d := bootKademlia(tr, hosts, nil, kademlia.DefaultConfig(), src.Stream("dht"))

	dcfg := resilience.DefaultConfig()
	dcfg.Backoff.Rand = src.Stream("fd-backoff")
	det := resilience.New(tr, k, dcfg)
	suspectAt := map[underlay.HostID]sim.Time{}
	evictAt := map[underlay.HostID]sim.Time{}
	det.OnSuspect = func(id underlay.HostID) { suspectAt[id] = k.Now() }
	det.OnEvict = func(id underlay.HostID) { evictAt[id] = k.Now() }
	det.Heal(d)
	for _, h := range hosts[1:] {
		det.Watch(hosts[0], h)
	}
	cfg.observeHealth("detector", det.HealthStats)
	cfg.observeHealth("kademlia", d.HealthStats)

	lookupRate := func(n int) float64 {
		nodes := d.Nodes()
		ok, total := 0, 0
		for i := 0; i < len(nodes) && total < n; i++ {
			node := nodes[i]
			if h := net.Host(node.Host); !h.Up {
				continue
			}
			total++
			res := d.Lookup(node.Host, nodes[(i*13+5)%len(nodes)].ID)
			if res.Hops > 0 && len(res.Closest) > 0 {
				ok++
			}
		}
		if total == 0 {
			return 0
		}
		return float64(ok) / float64(total)
	}
	before := lookupRate(24)

	sched, err := chaos.Parse("loss 500 1500 rate=0.3\ncrash 2000 n=3\n")
	if err != nil {
		panic(err)
	}
	var crashWaveAt sim.Time
	for _, w := range sched.Windows {
		if w.Kind == chaos.CrashWave {
			crashWaveAt = w.Start
		}
	}
	inj := chaos.NewInjector(k, tr, sched, src.Stream("chaos"))
	inj.Eligible = hosts[1:]
	if err := inj.Arm(); err != nil {
		panic(err)
	}
	k.Run(20 * sim.Second)
	after := lookupRate(24)

	res := Result{
		Title:   "Failure detection and overlay self-healing under the standard chaos campaign",
		Headers: []string{"victim", "crashed_ms", "suspected_ms", "evicted_ms", "detect_ms"},
	}
	for _, id := range det.Evicted() {
		res.Rows = append(res.Rows, []string{
			fmt.Sprintf("host %d", id),
			fmt.Sprintf("%.0f", float64(crashWaveAt)),
			fmt.Sprintf("%.0f", float64(suspectAt[id])),
			fmt.Sprintf("%.0f", float64(evictAt[id])),
			fmt.Sprintf("%.0f", float64(evictAt[id]-crashWaveAt)),
		})
	}
	report := chaos.Check("kademlia", d)
	res.Notes = append(res.Notes,
		fmt.Sprintf("lookup success before faults %.2f, after recovery %.2f", before, after),
		fmt.Sprintf("detector counters: ping=%d ping_fail=%d suspect=%d evict=%d recover=%d",
			det.Counters().Value("ping"), det.Counters().Value("ping_fail"),
			det.Counters().Value("suspect"), det.Counters().Value("evict"),
			det.Counters().Value("recover")),
		fmt.Sprintf("invariants clean: %v (no routing to evicted peers)", report.Ok()),
		"expect: every victim evicted within ~2.5 s of the wave (the loss burst may raise earlier, recanted suspicions); post-fault success within 0.1 of pre-fault",
	)
	return res
}
