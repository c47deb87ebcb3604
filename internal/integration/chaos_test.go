package integration

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"unap2p/internal/chaos"
	"unap2p/internal/core"
	"unap2p/internal/geo"
	"unap2p/internal/overlay/bittorrent"
	"unap2p/internal/overlay/brocade"
	"unap2p/internal/overlay/chord"
	"unap2p/internal/overlay/geotree"
	"unap2p/internal/overlay/gnutella"
	"unap2p/internal/overlay/gsh"
	"unap2p/internal/overlay/kademlia"
	"unap2p/internal/overlay/streaming"
	"unap2p/internal/resilience"
	"unap2p/internal/resources"
	"unap2p/internal/sim"
	"unap2p/internal/telemetry"
	"unap2p/internal/transport"
	"unap2p/internal/underlay"
	"unap2p/internal/workload"
)

// The chaos suite: every overlay runs the same seeded fault campaign —
// a correlated loss burst at [500, 1500) ms and a three-peer crash wave
// at 2 s — under a live failure detector wired to the overlay's healer.
// After the post-fault window each test asserts the chaos invariants
// (no routing to evicted peers, set-size bounds, workload success
// floor) and that the whole run — telemetry run file included — is
// byte-identical when repeated with the same seed.
//
// `make chaos` runs exactly these tests race-enabled.

// chaosSeeds are the pinned campaign seeds.
var chaosSeeds = []int64{11, 23, 47}

// chaosHorizon is the sim time every campaign runs for: the crash wave
// lands at 2 s, detector eviction completes by ~4.5 s, and the rest is
// the post-fault window overlays must re-converge in.
const chaosHorizon = 20 * sim.Second

// chaosEnv is the per-run world: topology, kernel, instrumented
// transport, failure detector, and a telemetry recorder streaming the
// run file into memory for the byte-identity comparison.
type chaosEnv struct {
	t     *testing.T
	net   *underlay.Network
	hosts []*underlay.Host
	k     *sim.Kernel
	tr    *transport.Transport
	src   *sim.Source
	rec   *telemetry.Recorder
	det   *resilience.Detector
	inj   *chaos.Injector
	buf   *bytes.Buffer
}

func newChaosEnv(t *testing.T, name string, seed int64) *chaosEnv {
	net, hosts, src := buildWorld(seed, 5)
	k := sim.NewKernel()
	tr := transport.New(net, k)
	// Caller-supplied retry budget with deterministic (zero-jitter)
	// exponential backoff — the RoundTrip policy under test.
	tr.Retry = resilience.Backoff{Base: 50, Max: 400, Factor: 2}.Policy(2)
	buf := &bytes.Buffer{}
	rec := telemetry.NewRecorder(telemetry.Config{
		Sink:     telemetry.NewRunWriter(buf),
		Manifest: telemetry.Manifest{Name: "chaos-" + name, Seed: seed},
	})
	rec.ObserveTransport(tr)
	rec.ObserveKernel(k)
	dcfg := resilience.DefaultConfig()
	dcfg.Backoff.Rand = src.Stream("fd-backoff")
	det := resilience.New(tr, k, dcfg)
	rec.Registry().RegisterCounters("resilience", det.Counters())
	return &chaosEnv{
		t: t, net: net, hosts: hosts, k: k, tr: tr, src: src,
		rec: rec, det: det, buf: buf,
	}
}

// watchFrom probes every other host from the vantage (which the crash
// wave must not be allowed to take down).
func (e *chaosEnv) watchFrom(vantage *underlay.Host) {
	for _, h := range e.hosts {
		if h.ID != vantage.ID {
			e.det.Watch(vantage, h)
		}
	}
}

// arm installs the standard campaign. eligible is the crash pool —
// exclude the detector vantage (and any peer the overlay cannot lose,
// like a stream source or the only torrent seed).
func (e *chaosEnv) arm(eligible []*underlay.Host) {
	sched, err := chaos.Parse("loss 500 1500 rate=0.3\ncrash 2000 n=3\n")
	if err != nil {
		e.t.Fatalf("campaign schedule: %v", err)
	}
	inj := chaos.NewInjector(e.k, e.tr, sched, e.src.Stream("chaos"))
	inj.Eligible = eligible
	if err := inj.Arm(); err != nil {
		e.t.Fatalf("arm: %v", err)
	}
	e.inj = inj
}

// finish asserts the campaign's universal postconditions — the wave
// crashed 3 peers, the detector evicted exactly those, the overlay
// invariants hold, resilience:* counters made it into the run file —
// and returns the run-file bytes for the byte-identity comparison.
func (e *chaosEnv) finish(report *chaos.Report) []byte {
	e.t.Helper()
	crashed := e.inj.Crashed()
	if len(crashed) != 3 {
		e.t.Fatalf("crash wave took down %v, want 3 peers", crashed)
	}
	if got := e.det.Evicted(); !reflect.DeepEqual(got, crashed) {
		e.t.Fatalf("detector evicted %v, crashed %v", got, crashed)
	}
	if err := report.Err(); err != nil {
		e.t.Fatal(err)
	}
	if err := e.rec.Close(); err != nil {
		e.t.Fatalf("recorder close: %v", err)
	}
	run, err := telemetry.ReadRun(bytes.NewReader(e.buf.Bytes()))
	if err != nil {
		e.t.Fatalf("run file: %v", err)
	}
	ctr := run.Summary.Metrics.Counters
	if ctr["resilience:evict"] != 3 {
		e.t.Fatalf("run file resilience:evict = %d, want 3", ctr["resilience:evict"])
	}
	if ctr["resilience:ping"] == 0 || ctr["resilience:ping_fail"] == 0 {
		e.t.Fatalf("run file missing resilience ping counters: %v", ctr)
	}
	return append([]byte(nil), e.buf.Bytes()...)
}

// evictedSet indexes the detector verdicts for workload-level checks.
func (e *chaosEnv) evictedSet() map[underlay.HostID]bool {
	out := make(map[underlay.HostID]bool)
	for _, id := range e.det.Evicted() {
		out[id] = true
	}
	return out
}

// host resolves an id against the world's host list.
func (e *chaosEnv) host(id underlay.HostID) *underlay.Host {
	for _, h := range e.hosts {
		if h.ID == id {
			return h
		}
	}
	e.t.Fatalf("unknown host id %d", id)
	return nil
}

// chaosCompare runs one scenario twice per pinned seed and requires
// bit-identical run files that match their checked-in hash.
func chaosCompare(t *testing.T, scenario func(t *testing.T, seed int64) []byte) {
	for _, seed := range chaosSeeds {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			a := scenario(t, seed)
			b := scenario(t, seed)
			if !bytes.Equal(a, b) {
				t.Fatalf("run files differ across identical runs (%d vs %d bytes)",
					len(a), len(b))
			}
			checkRunFile(t, t.Name(), a)
		})
	}
}

func TestChaosKademlia(t *testing.T) {
	chaosCompare(t, func(t *testing.T, seed int64) []byte {
		e := newChaosEnv(t, "kademlia", seed)
		d := kademlia.New(e.tr, nil, kademlia.DefaultConfig(), e.src.Stream("dht"))
		for _, h := range e.hosts {
			d.AddNode(h)
		}
		d.Bootstrap(4)
		e.det.Heal(d)
		e.watchFrom(e.hosts[0])
		e.arm(e.hosts[1:])
		e.k.Run(chaosHorizon)

		report := chaos.Check("kademlia", d)
		evicted := e.evictedSet()
		nodes := d.Nodes()
		ok, total := 0, 0
		for i := 0; i < len(nodes) && total < 24; i++ {
			n := nodes[i]
			if evicted[n.Host] {
				continue
			}
			total++
			res := d.Lookup(n.Host, nodes[(i*13+5)%len(nodes)].ID)
			if res.Hops > 0 && len(res.Closest) > 0 {
				ok++
			}
			for _, c := range res.Closest {
				if evicted[c.Host] {
					report.Add("dead-refs", "lookup returned evicted contact %d", c.Host)
				}
			}
		}
		report.SuccessFloor("post-fault lookups", ok, total, 0.8)
		var sizes []int
		for _, n := range nodes {
			if !evicted[n.Host] {
				sizes = append(sizes, len(n.Contacts()))
			}
		}
		report.SizeBounds("contacts", sizes, 1, 64*d.Cfg.K)
		return e.finish(report)
	})
}

func TestChaosGnutella(t *testing.T) {
	chaosCompare(t, func(t *testing.T, seed int64) []byte {
		e := newChaosEnv(t, "gnutella", seed)
		ov := gnutella.New(e.tr, nil, gnutella.DefaultConfig(), e.src.Stream("overlay"))
		for i, h := range e.hosts {
			ov.AddNode(h, i%4 == 0)
		}
		ov.JoinAll()
		catalog := workload.NewCatalog(20)
		workload.PopulateZipf(catalog, e.hosts, 8, 1.0, e.src.Stream("content"))
		ov.Catalog = catalog
		e.det.Heal(ov)
		e.watchFrom(e.hosts[0])
		e.arm(e.hosts[1:])
		e.k.Run(chaosHorizon)

		report := chaos.Check("gnutella", ov)
		ok, total := 0, 0
		for i := 0; i < len(e.hosts) && total < 30; i++ {
			h := e.hosts[i]
			if !h.Up {
				continue
			}
			total++
			res := ov.RunSearch(h.ID, workload.ItemID(i%20))
			if !res.Done {
				t.Fatal("post-fault search did not terminate")
			}
			if len(res.Hits) > 0 {
				ok++
			}
		}
		report.SuccessFloor("post-fault searches", ok, total, 0.5)
		return e.finish(report)
	})
}

func TestChaosChord(t *testing.T) {
	chaosCompare(t, func(t *testing.T, seed int64) []byte {
		e := newChaosEnv(t, "chord", seed)
		ring := chord.New(e.tr, nil, e.src.Stream("ring"))
		for _, h := range e.hosts {
			ring.AddNode(h)
		}
		ring.Build()
		e.det.Heal(ring)
		e.watchFrom(e.hosts[0])
		e.arm(e.hosts[1:])
		e.k.Run(chaosHorizon)

		report := chaos.Check("chord", ring)
		keys := e.src.Stream("keys")
		ok, total := 0, 0
		for _, n := range ring.Nodes() {
			if total >= 24 {
				break
			}
			if !n.Host.Up {
				continue
			}
			total++
			res := ring.Lookup(n.Host.ID, chord.ID(keys.Uint64()))
			if res.Owner != nil && res.Owner.Host.Up {
				ok++
			}
		}
		report.SuccessFloor("post-fault lookups", ok, total, 0.8)
		return e.finish(report)
	})
}

func TestChaosBitTorrent(t *testing.T) {
	chaosCompare(t, func(t *testing.T, seed int64) []byte {
		e := newChaosEnv(t, "bittorrent", seed)
		cfg := bittorrent.DefaultConfig()
		s := bittorrent.NewSwarm(e.tr, nil, cfg, e.src.Stream("swarm"))
		s.AddSeed(e.hosts[1])
		for i, h := range e.hosts {
			if i != 1 {
				s.AddLeecher(h)
			}
		}
		s.AssignNeighbors()
		// One upload round every 50 ms, interleaved with the campaign
		// and the detector on the shared kernel.
		for i := 0; i < 380; i++ {
			e.k.At(sim.Time(50*(i+1)), func() { s.Round() })
		}
		e.det.Heal(s)
		e.watchFrom(e.hosts[0])
		// Protect the vantage and the only seed from the wave.
		e.arm(e.hosts[2:])
		e.k.Run(chaosHorizon)

		report := chaos.Check("bittorrent", s)
		evicted := e.evictedSet()
		done, live := 0, 0
		var sizes []int
		for _, p := range s.Peers() {
			if evicted[p.Host.ID] || !p.Host.Up {
				continue
			}
			live++
			if p.Complete() {
				done++
			}
			sizes = append(sizes, p.NeighborCount())
		}
		report.SuccessFloor("live-peer completion", done, live, 0.9)
		report.SizeBounds("neighbor set", sizes, 1, 3*12) // 3× the tracker's peer set
		return e.finish(report)
	})
}

func TestChaosGeotree(t *testing.T) {
	chaosCompare(t, func(t *testing.T, seed int64) []byte {
		e := newChaosEnv(t, "geotree", seed)
		gt := geotree.New(e.tr, core.GeoSelector{})
		for _, h := range e.hosts {
			gt.Insert(h)
		}
		e.det.Heal(gt)
		e.watchFrom(e.hosts[0])
		e.arm(e.hosts[1:])
		e.k.Run(chaosHorizon)

		report := chaos.Check("geotree", gt)
		evicted := e.evictedSet()
		ok, total := 0, 0
		for i := 0; i < len(e.hosts) && total < 20; i++ {
			h := e.hosts[i]
			if !h.Up {
				continue
			}
			total++
			id, _, found := gt.NearestPeer(h, geo.Coord{Lat: h.Lat, Lon: h.Lon})
			if found && !evicted[id] && e.host(id).Up {
				ok++
			}
		}
		report.SuccessFloor("post-fault nearest-peer", ok, total, 0.9)
		return e.finish(report)
	})
}

func TestChaosGSH(t *testing.T) {
	chaosCompare(t, func(t *testing.T, seed int64) []byte {
		e := newChaosEnv(t, "gsh", seed)
		o := gsh.New(e.tr, core.GeoSelector{})
		for _, h := range e.hosts {
			o.Join(h)
		}
		// Pre-fault content: every key has two holders, published before
		// the loss burst opens.
		n := len(e.hosts)
		for i := 0; i < 20; i++ {
			k := gsh.HashKey(fmt.Sprintf("item-%d", i))
			o.Publish(e.hosts[(i*3)%n], k)
			o.Publish(e.hosts[(i*7+1)%n], k)
		}
		e.det.Heal(o)
		e.watchFrom(e.hosts[0])
		e.arm(e.hosts[1:])
		e.k.Run(chaosHorizon)

		report := chaos.Check("gsh", o)
		evicted := e.evictedSet()
		ok, total := 0, 0
		for i := 0; i < 20; i++ {
			k := gsh.HashKey(fmt.Sprintf("item-%d", i))
			req := e.hosts[(i*11+2)%n]
			if !req.Up {
				continue
			}
			total++
			holders, _ := o.Lookup(req, k)
			live := false
			for _, id := range holders {
				if evicted[id] {
					report.Add("dead-refs", "lookup returned evicted holder %d", id)
				}
				if e.host(id).Up {
					live = true
				}
			}
			if live {
				ok++
			}
		}
		report.SuccessFloor("post-fault lookups", ok, total, 0.6)
		return e.finish(report)
	})
}

func TestChaosBrocade(t *testing.T) {
	chaosCompare(t, func(t *testing.T, seed int64) []byte {
		e := newChaosEnv(t, "brocade", seed)
		b := brocade.Build(e.tr, nil, e.hosts)
		e.det.Heal(b)
		e.watchFrom(e.hosts[0])
		e.arm(e.hosts[1:])
		e.k.Run(chaosHorizon)

		report := chaos.Check("brocade", b)
		// Post-fault routes between live pairs must traverse only live
		// re-elected supernodes; the transport is loss-free again, so
		// every leg delivers.
		ok, total := 0, 0
		n := len(e.hosts)
		for i := 0; i < n && total < 30; i++ {
			src, dst := e.hosts[i], e.hosts[(i*17+9)%n]
			if !src.Up || !dst.Up || src.ID == dst.ID {
				continue
			}
			total++
			st := b.Route(src.ID, dst.ID)
			if st.Hops > 0 && st.Latency > 0 {
				ok++
			}
		}
		report.SuccessFloor("post-fault routes", ok, total, 0.9)
		return e.finish(report)
	})
}

func TestChaosStreaming(t *testing.T) {
	chaosCompare(t, func(t *testing.T, seed int64) []byte {
		e := newChaosEnv(t, "streaming", seed)
		table := resources.GenerateAll(e.net, e.src.Stream("res"))
		sel := &core.ResourceSelector{Table: table, WeightParents: true}
		m := streaming.NewMesh(e.tr, sel, e.hosts[1], e.src.Stream("mesh"))
		for i, h := range e.hosts {
			if i != 1 {
				m.AddViewer(h)
			}
		}
		m.AssignParents()
		// One stream tick every 100 ms on the shared kernel.
		for i := 0; i < 195; i++ {
			e.k.At(sim.Time(100*(i+1)), func() { m.Tick() })
		}
		e.det.Heal(m)
		e.watchFrom(e.hosts[0])
		// Protect the vantage and the stream source from the wave.
		e.arm(e.hosts[2:])
		e.k.Run(chaosHorizon)

		report := chaos.Check("streaming", m)
		evicted := e.evictedSet()
		var sizes []int
		for _, p := range m.Peers() {
			if !evicted[p.Host.ID] && p.Host.Up {
				sizes = append(sizes, p.ParentCount())
			}
		}
		// A viewer keeps 4 mesh parents; allow 2 over for the source fan-out.
		report.SizeBounds("parent set", sizes, 1, 4+2)
		if c := m.Continuity(); c < 0.5 {
			report.Add("success-floor", "continuity %.3f below 0.5", c)
		}
		return e.finish(report)
	})
}
