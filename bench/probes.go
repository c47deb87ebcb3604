package main

import (
	"fmt"
	"runtime"
	"time"

	"unap2p/internal/core"
	"unap2p/internal/megascale"
	"unap2p/internal/metrics"
	"unap2p/internal/nettransport"
	"unap2p/internal/sim"
	"unap2p/internal/topology"
	"unap2p/internal/transport"
	"unap2p/internal/underlay"
)

// The probes time each layer's public functions in isolation, from
// outside, for sz.probe each: the unit costs of the operations a traced
// round counts. They run the same in every workload's traced invocation.

// perOp calls step until its timed parts add up to budget and returns
// the mean nanoseconds per operation. step times its own measured part
// so that its set-up stays out of the figure.
func perOp(budget time.Duration, step func() (ops int, d time.Duration)) float64 {
	var ops int
	var total time.Duration
	for total < budget {
		n, d := step()
		ops += n
		total += d
	}
	return ratio(float64(total.Nanoseconds()), float64(ops))
}

// timed runs fn once and reports n operations and its duration.
func timed(n int, fn func()) (int, time.Duration) {
	t0 := time.Now()
	fn()
	return n, time.Since(t0)
}

const probeBatch = 20_000

var probeSink int // keeps probe results observable so calls are not elided

// probeNet is a small transit-stub underlay with hosts, for the classic
// transport and selector probes.
func probeNet() (*underlay.Network, []*underlay.Host) {
	src := sim.NewSource(1)
	net := topology.TransitStub(topology.TransitStubConfig{
		Config:   topology.Config{IntraDelay: 5, LinkDelay: 20, Rand: src.Stream("topo")},
		Transits: 3, Stubs: 40, MultihomeProb: 0.2, StubPeeringProb: 0.1,
	})
	net.ComputeRoutes()
	hosts := topology.PlaceHosts(net, 4, false, 1, 5, src.Stream("place"))
	return net, hosts
}

func probeSim(sz sizes, out map[string]float64) {
	noop := func() {}
	out["sim.schedule_pop_ns"] = perOp(sz.probe, func() (int, time.Duration) {
		k := sim.NewKernel()
		return timed(probeBatch, func() {
			for i := 0; i < probeBatch; i++ {
				k.Schedule(sim.Duration(i%1000), noop)
			}
			k.Drain()
		})
	})
	// One trivial event per epoch window on shard 0 of a K=2 kernel:
	// every epoch is an otherwise empty barrier.
	const epochs = 500
	out["sim.barrier_us"] = perOp(sz.probe, func() (int, time.Duration) {
		sk := sim.NewSharded(2, 10)
		for i := 0; i < epochs; i++ {
			sk.Shard(0).At(sim.Time(i*10), noop)
		}
		return timed(epochs, func() { sk.Drain() })
	}) / 1e3
	out["sim.defer_to_ns"] = perOp(sz.probe, func() (int, time.Duration) {
		sk := sim.NewSharded(2, 10)
		return timed(probeBatch, func() {
			s0 := sk.Shard(0)
			for i := 0; i < probeBatch; i++ {
				s0.DeferTo(1, sim.Duration(10+i%100), 0, noop)
			}
			sk.Drain()
		})
	})
}

func probeTransport(sz sizes, out map[string]float64) {
	net, hosts := probeNet()
	pair := func(i int) (*underlay.Host, *underlay.Host) {
		return hosts[i%len(hosts)], hosts[(i*11+3)%len(hosts)]
	}
	tr := transport.Over(net)
	out["transport.send_ns"] = perOp(sz.probe, func() (int, time.Duration) {
		return timed(probeBatch, func() {
			for i := 0; i < probeBatch; i++ {
				a, b := pair(i)
				tr.Send(a, b, 1000, "bench")
			}
		})
	})
	out["transport.roundtrip_ns"] = perOp(sz.probe, func() (int, time.Duration) {
		return timed(probeBatch, func() {
			for i := 0; i < probeBatch; i++ {
				a, b := pair(i)
				tr.RoundTrip(a, b, 100, 100, "req", "resp")
			}
		})
	})
	k := sim.NewKernel()
	trk := transport.New(net, k)
	delivered := 0
	out["transport.deliver_ns"] = perOp(sz.probe, func() (int, time.Duration) {
		return timed(probeBatch, func() {
			for i := 0; i < probeBatch; i++ {
				a, b := pair(i)
				trk.Deliver(a, b, 64, "bench", func() { delivered++ })
			}
			k.Drain()
		})
	})
	probeSink += delivered

	// Sharded sends over a small mega substrate, issued from set-up
	// context and drained by the kernel: same-shard pairs take the local
	// heap, cross-shard pairs the batch-and-merge path.
	u := buildMegaUnderlay(1, 4000)
	pt, part := u.peerTable()
	byShard := make([][]underlay.PeerID, part.NumShards())
	for p := 0; p < pt.Len(); p++ {
		s := part.ShardOf(pt, underlay.PeerID(p))
		byShard[s] = append(byShard[s], underlay.PeerID(p))
	}
	sharded := func(cross bool) float64 {
		return perOp(sz.probe, func() (int, time.Duration) {
			sk := sim.NewSharded(part.NumShards(), 10)
			snet := transport.NewShardedNet(u.net, pt, part, sk, []string{"bench"})
			from, to := byShard[0], byShard[0]
			if cross {
				to = byShard[1]
			}
			return timed(probeBatch, func() {
				for i := 0; i < probeBatch; i++ {
					snet.Send(from[i%len(from)], to[(i*7+1)%len(to)], 0, 64, func() { delivered++ })
				}
				sk.Drain()
			})
		})
	}
	out["transport.sharded_send_ns"] = sharded(false)
	out["transport.sharded_send_cross_ns"] = sharded(true)
	probeSink += delivered

	out["underlay.latency_ns"] = perOp(sz.probe, func() (int, time.Duration) {
		var sum sim.Duration
		n, d := timed(probeBatch, func() {
			for i := 0; i < probeBatch; i++ {
				sum += pt.Latency(underlay.PeerID(i%pt.Len()), underlay.PeerID((i*7919+13)%pt.Len()))
			}
		})
		probeSink += int(sum)
		return n, d
	})
}

func probeMetrics(sz sizes, out map[string]float64) {
	cs := metrics.NewCounterSet()
	out["metrics.counter_inc_ns"] = perOp(sz.probe, func() (int, time.Duration) {
		return timed(probeBatch, func() {
			for i := 0; i < probeBatch; i++ {
				cs.Get("bench").Inc()
			}
		})
	})
	h := metrics.NewLatencyHistogram()
	out["metrics.histogram_observe_ns"] = perOp(sz.probe, func() (int, time.Duration) {
		return timed(probeBatch, func() {
			for i := 0; i < probeBatch; i++ {
				h.Observe(float64(i % 300))
			}
		})
	})
	m := metrics.NewTrafficMatrix()
	out["metrics.matrix_add_ns"] = perOp(sz.probe, func() (int, time.Duration) {
		return timed(probeBatch, func() {
			for i := 0; i < probeBatch; i++ {
				m.Add(i%40, (i*7)%40, 64)
			}
		})
	})
}

// probeCore times Selector ranking over 64 candidates: AS-hop ranking
// behind a warm score cache (the configuration the experiments run) and
// RTT ranking with no cache.
func probeCore(sz sizes, out map[string]float64) {
	net, hosts := probeNet()
	client := hosts[0]
	var cands []underlay.HostID
	for _, h := range hosts[1:65] {
		cands = append(cands, h.ID)
	}
	const ranks = 200

	cached := core.ASHopSelector(net)
	cached.E.EnableCache(core.CacheConfig{Capacity: 4096})
	cached.Rank(client, cands) // fill the cache
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	total := 0
	out["core.rank_ns"] = perOp(sz.probe, func() (int, time.Duration) {
		total += ranks
		return timed(ranks, func() {
			for i := 0; i < ranks; i++ {
				r, _ := cached.Rank(client, cands)
				probeSink += len(r)
			}
		})
	})
	runtime.ReadMemStats(&m1)
	out["core.rank_allocs"] = ratio(float64(m1.Mallocs-m0.Mallocs), float64(total))
	cst := cached.E.CacheStats()
	out["core.cache_hit_ratio"] = ratio(float64(cst.Hits), float64(cst.Hits+cst.Misses))

	uncached := core.RTTSelector(net)
	out["core.rank_uncached_ns"] = perOp(sz.probe, func() (int, time.Duration) {
		return timed(ranks, func() {
			for i := 0; i < ranks; i++ {
				r, _ := uncached.Rank(client, cands)
				probeSink += len(r)
			}
		})
	})
	score := core.ASHopSelector(net)
	out["core.score_ns"] = perOp(sz.probe, func() (int, time.Duration) {
		var sum float64
		n, d := timed(probeBatch, func() {
			for i := 0; i < probeBatch; i++ {
				sum += score.E.Score(client, hosts[1+i%64])
			}
		})
		probeSink += int(sum)
		return n, d
	})
}

func probeMegascale(sz sizes, out map[string]float64) {
	t0 := time.Now()
	ids := megascale.NewIDSpace(sz.idspace, 0x1d5)
	out["megascale.idspace_build_s"] = time.Since(t0).Seconds()
	out["megascale.closest_xor_ns"] = perOp(sz.probe, func() (int, time.Duration) {
		var x uint64
		n, d := timed(probeBatch, func() {
			for i := 0; i < probeBatch; i++ {
				x ^= ids.ClosestXOR(megascale.Mix64(uint64(i)))
			}
		})
		probeSink += int(x & 1)
		return n, d
	})
}

// probeWire times the live plane's codec and a loopback echo between
// two Nets in this process.
func probeWire(sz sizes, out map[string]float64) error {
	frame := nettransport.Frame{Kind: nettransport.KindReq, Type: "kad:find_node",
		From: 1, To: 2, ReqID: 42, Payload: make([]byte, 8)}
	var buf []byte
	out["nettransport.encode_ns"] = perOp(sz.probe, func() (int, time.Duration) {
		return timed(probeBatch, func() {
			for i := 0; i < probeBatch; i++ {
				buf, _ = nettransport.AppendFrame(buf[:0], &frame) // a fixed valid frame cannot fail to encode
			}
		})
	})
	out["nettransport.decode_ns"] = perOp(sz.probe, func() (int, time.Duration) {
		return timed(probeBatch, func() {
			for i := 0; i < probeBatch; i++ {
				f, _ := nettransport.DecodeFrame(buf) // buf holds the frame encoded above
				probeSink += len(f.Payload)
			}
		})
	})

	a, err := nettransport.Listen(nettransport.Config{Self: 1})
	if err != nil {
		return fmt.Errorf("probe socket: %w", err)
	}
	defer a.Close()
	b, err := nettransport.Listen(nettransport.Config{Self: 2})
	if err != nil {
		return fmt.Errorf("probe socket: %w", err)
	}
	defer b.Close()
	a.Book().Set(2, b.LocalAddr())
	b.Book().Set(1, a.LocalAddr())
	b.Handle("kad:find_node", func(_ underlay.HostID, payload []byte) []byte { return payload })

	// The find_node reply shape: a mini address book of 8 entries.
	book := nettransport.NewAddressBook()
	var eight []underlay.HostID
	for i := 0; i < 8; i++ {
		book.Set(underlay.HostID(i+1), a.LocalAddr())
		eight = append(eight, underlay.HostID(i+1))
	}
	const codecs = 2_000
	out["nettransport.peers_codec_ns"] = perOp(sz.probe, func() (int, time.Duration) {
		return timed(codecs, func() {
			for i := 0; i < codecs; i++ {
				ps, _ := nettransport.DecodePeers(book.EncodeIDs(eight)) // decoding what was just encoded
				probeSink += len(ps)
			}
		})
	})

	const calls = 200
	var callErr error
	out["nettransport.call_rtt_us"] = perOp(sz.probe, func() (int, time.Duration) {
		return timed(calls, func() {
			for i := 0; i < calls; i++ {
				if _, err := a.Call(2, "kad:find_node", frame.Payload); err != nil {
					callErr = err
				}
			}
		})
	}) / 1e3
	if callErr != nil {
		return fmt.Errorf("probe echo call: %w", callErr)
	}
	out["nettransport.send_payload_ns"] = perOp(sz.probe, func() (int, time.Duration) {
		return timed(calls, func() {
			for i := 0; i < calls; i++ {
				a.SendPayload(2, "data", frame.Payload, 0)
			}
		})
	})
	return nil
}

// runProbes runs every isolated probe and returns their metrics.
func runProbes(sz sizes) (map[string]float64, error) {
	out := map[string]float64{}
	probeSim(sz, out)
	probeTransport(sz, out)
	probeMetrics(sz, out)
	probeCore(sz, out)
	probeMegascale(sz, out)
	if err := probeWire(sz, out); err != nil {
		return nil, err
	}
	return out, nil
}
