package main

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"unap2p/internal/livenode"
	"unap2p/internal/megascale"
	"unap2p/internal/underlay"
)

// liveClients is the closed-loop client count: each client issues its
// next lookup only after the previous one returned. Two, because the
// sandbox has two cores and the cluster shares them with the clients.
const liveClients = 2

// liveInstance is one booted in-process cluster: nodes on loopback UDP
// sockets in this process, so "network" here is the host's loopback
// interface and every node shares the benchmark's CPU.
type liveInstance struct {
	nodes []*livenode.Node
	seed  uint64
	batch int
	bootS float64
}

// setupLive boots sz.nodes Kademlia nodes (node 0 is the bootstrap, the
// rest join through it), waits until every address book is full, and
// runs the warm-up lookups — all of it set-up.
func setupLive(seed int64, sz sizes, tr *tracer, parent int) (instance, error) {
	in := &liveInstance{seed: uint64(seed), batch: sz.batch}
	sp := tr.begin(parent, "livenode.boot")
	t0 := time.Now()
	for i := 0; i < sz.nodes; i++ {
		n, err := livenode.StartRetry(livenode.Config{ID: underlay.HostID(i + 1), Overlay: "kademlia"}, 5)
		if err != nil {
			in.close()
			return nil, fmt.Errorf("start node %d: %w", i+1, err)
		}
		in.nodes = append(in.nodes, n)
		if i > 0 {
			if err := n.Join(in.nodes[0].Net().LocalAddr().String()); err != nil {
				in.close()
				return nil, fmt.Errorf("join node %d: %w", i+1, err)
			}
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for !in.booksFull() {
		if time.Now().After(deadline) {
			in.close()
			return nil, fmt.Errorf("address books not full after 10 s")
		}
		time.Sleep(time.Millisecond)
	}
	in.bootS = time.Since(t0).Seconds()
	tr.end(sp)

	sp = tr.begin(parent, "livenode.warmup")
	_, failed := in.lookups(sz.warmup, nil)
	tr.end(sp)
	if failed > 0 {
		in.close()
		return nil, fmt.Errorf("%d of %d warm-up lookups failed", failed, sz.warmup)
	}
	return in, nil
}

func (in *liveInstance) booksFull() bool {
	for _, n := range in.nodes {
		if n.Peers() != len(in.nodes) {
			return false
		}
	}
	return true
}

func (in *liveInstance) close() {
	for _, n := range in.nodes {
		n.Close()
	}
}

// lookups runs count lookups, split over the clients, round-robin over
// the nodes, for targets hashed from the seed. With clock non-nil each
// lookup is timed against it and returned as a span record; without, no
// per-lookup clock is read.
func (in *liveInstance) lookups(count int, clock func() float64) (recs []spanRec, failed int) {
	perClient := make([][]spanRec, liveClients)
	fails := make([]int, liveClients)
	var wg sync.WaitGroup
	for c := 0; c < liveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < count; i += liveClients {
				node := in.nodes[i%len(in.nodes)]
				target := megascale.Mix64(in.seed ^ uint64(i)*0x9e3779b97f4a7c15)
				var start float64
				if clock != nil {
					start = clock()
				}
				_, ok := node.Engine().Lookup(target)
				if clock != nil {
					perClient[c] = append(perClient[c], spanRec{start: start, end: clock()})
				}
				if !ok {
					fails[c]++
				}
			}
		}(c)
	}
	wg.Wait()
	for c := range perClient {
		recs = append(recs, perClient[c]...)
		failed += fails[c]
	}
	return recs, failed
}

// liveCounters is a cluster-wide snapshot of the transport and detector
// counters a traced round takes deltas of.
type liveCounters struct {
	frames, rpcs, timeouts, retries, rxBad, pings float64
}

func (in *liveInstance) counters() liveCounters {
	var c liveCounters
	for _, n := range in.nodes {
		for name, v := range n.Net().Counters().Snapshot() {
			switch {
			case name == "net_timeout":
				c.timeouts += float64(v)
			case name == "net_retry":
				c.retries += float64(v)
			case name == "net_rx_bad":
				c.rxBad += float64(v)
			case strings.HasPrefix(name, "net_"), strings.HasSuffix(name, "_bytes"), strings.HasSuffix(name, "_rx"):
				// transport internals, byte totals and receive-side
				// mirrors: not sent frames
			default:
				c.frames += float64(v) // one count per frame sent, by type
				if name == "kad:find_node" {
					c.rpcs += float64(v)
				}
			}
		}
		c.pings += float64(n.Detector().Counters().Value("ping"))
	}
	return c
}

func (in *liveInstance) run(tr *tracer, parent int) round {
	r := round{ops: in.batch, layer: map[string]float64{"livenode.boot_s": in.bootS}}
	if tr == nil {
		_, r.failed = in.lookups(in.batch, nil)
		return r
	}

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0 := in.counters()
	t0 := time.Now()
	recs, failed := in.lookups(in.batch, tr.now)
	wall := time.Since(t0).Seconds()
	c1 := in.counters()
	runtime.ReadMemStats(&m1)
	r.failed = failed
	tr.add(parent, "lookup", clockHost, recs)

	ms := make([]float64, len(recs))
	for i, rec := range recs {
		ms[i] = (rec.end - rec.start) * 1e3
	}
	n := float64(in.batch)
	p50 := median(ms)
	r.layer["lookups_per_s"] = ratio(n, wall)
	r.layer["lookup_p50_ms"] = p50
	if v, ok := percentile(ms, 99); ok {
		r.layer["lookup_p99_ms"] = v
	}
	r.layer["fail_ratio"] = ratio(float64(failed), n)
	r.layer["nettransport.frames_per_lookup"] = (c1.frames - c0.frames) / n
	r.layer["nettransport.timeouts"] = c1.timeouts - c0.timeouts
	r.layer["nettransport.retries"] = c1.retries - c0.retries
	r.layer["nettransport.rx_bad"] = c1.rxBad - c0.rxBad
	r.layer["livenode.detector_pings"] = c1.pings - c0.pings
	r.layer["livenode.alloc_kb_per_lookup"] = float64(m1.TotalAlloc-m0.TotalAlloc) / 1e3 / n
	rpcs := (c1.rpcs - c0.rpcs) / n
	r.layer["livenode.rpcs_per_lookup"] = rpcs

	// Net.RTT() histograms are cumulative since boot and their first
	// bucket ends at 1 ms, far above a loopback round trip, so the
	// quantiles are interpolated inside one bucket; the mean is exact.
	var p50s, p99s, means []float64
	for _, node := range in.nodes {
		h := node.Net().RTT()
		if h.N() > 0 {
			p50s = append(p50s, h.Quantile(0.5))
			p99s = append(p99s, h.Quantile(0.99))
			means = append(means, h.Mean())
		}
	}
	rtt := median(means)
	r.layer["nettransport.rpc_rtt_p50_ms"] = median(p50s)
	r.layer["nettransport.rpc_rtt_p99_ms"] = median(p99s)
	r.layer["nettransport.rpc_rtt_mean_ms"] = rtt
	r.layer["livenode.self_us_per_lookup"] = (p50 - rpcs*rtt) * 1e3
	return r
}
