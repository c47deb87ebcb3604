package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"sync"
	"time"

	"unap2p/internal/churn"
	"unap2p/internal/experiments"
	"unap2p/internal/mobility"
	"unap2p/internal/sim"
	"unap2p/internal/transport"
)

// The two paper workloads run classic single-kernel experiments through
// experiments.Run, exactly as underlaysim does. The ids are split by the
// layer that dominates them.
var (
	// unstructuredIDs are flood- and swarm-style runs: transport.Send
	// accounting, the metrics atomics and sim.Kernel do the work.
	unstructuredIDs = []string{
		"tab1-gnutella-msgs", "exp-intra-as", "abl-pong-cache",
		"exp-testlab", "fig5-overlay-viz", "exp-bns-swarm",
	}
	// selectorIDs are proximity-selection runs: core.Selector rank/score
	// and its cache, coords, and the classic DHTs do the work.
	selectorIDs = []string{
		"exp-pns-kademlia", "exp-chord-pns", "abl-pns-metric", "tab2-impact",
		"abl-coords", "exp-brocade", "exp-overhead",
	}
)

// collector is the bench-local experiments.Observer of traced rounds: it
// only remembers each transport and kernel an experiment builds, to read
// their message and event counts after the run. A kernel is announced
// once per component built over it, hence the set. Observers may be
// called from concurrent goroutines during multi-seed sweeps.
type collector struct {
	mu      sync.Mutex
	ts      []*transport.Transport
	kernels map[*sim.Kernel]bool
}

func (c *collector) ObserveTransport(t *transport.Transport) {
	c.mu.Lock()
	c.ts = append(c.ts, t)
	c.mu.Unlock()
}
func (c *collector) ObserveKernel(k *sim.Kernel) {
	c.mu.Lock()
	c.kernels[k] = true
	c.mu.Unlock()
}
func (c *collector) ObserveChurn(*churn.Driver)      {}
func (c *collector) ObserveMobility(*mobility.Model) {}

// events is the number of events every collected kernel processed, and
// the deepest queue any of them reached.
func (c *collector) events() (processed, maxQueue float64) {
	for k := range c.kernels {
		processed += float64(k.Processed())
		maxQueue = max(maxQueue, float64(k.MaxQueue()))
	}
	return
}

// totals sums the accounting of every collected transport.
func (c *collector) totals() (msgs, bytes, intra float64) {
	for _, t := range c.ts {
		for _, st := range t.AllStats() {
			msgs += float64(st.Msgs)
			bytes += float64(st.Bytes)
			intra += float64(st.IntraBytes)
		}
	}
	return
}

type paperInstance struct {
	ids   []string
	seeds []int64
	scale float64
}

// paperWarmShare is the share of a paper workload's scale its set-up
// pass runs at.
const paperWarmShare = 0.25

// setupPaper returns the set-up function of a paper workload: ids run at
// the given scale for nSeeds consecutive seeds. The experiments build
// their own inputs inside Run, so what precedes the first measured run
// is a pass over every id at paperWarmShare of the scale: it resolves the
// ids (an unknown id fails here) and lets lazy initialisation finish.
func setupPaper(ids []string, scale func(sizes) float64, nSeeds int) func(int64, sizes, *tracer, int) (instance, error) {
	return func(seed int64, sz sizes, tr *tracer, parent int) (instance, error) {
		in := &paperInstance{ids: ids, scale: scale(sz)}
		for i := 0; i < nSeeds; i++ {
			in.seeds = append(in.seeds, seed+int64(i))
		}
		sp := tr.begin(parent, "experiments.warmup")
		defer tr.end(sp)
		for _, id := range ids {
			if _, err := experiments.Run(id, experiments.RunConfig{Seed: seed, Scale: in.scale * paperWarmShare}); err != nil {
				return nil, err
			}
		}
		return in, nil
	}
}

func (in *paperInstance) close() {}

func (in *paperInstance) run(tr *tracer, parent int) round {
	r := round{exact: map[string]float64{}, layer: map[string]float64{}}
	digest := sha256.New()
	var msgs, bytes, intra, events, runS float64
	for _, seed := range in.seeds {
		for _, id := range in.ids {
			cfg := experiments.RunConfig{Seed: seed, Scale: in.scale}
			var col *collector
			var m0 runtime.MemStats
			var t0 time.Time
			if tr != nil {
				col = &collector{kernels: map[*sim.Kernel]bool{}}
				cfg.Obs = col
				runtime.ReadMemStats(&m0)
				t0 = time.Now()
			}
			sp := tr.begin(parent, "experiments.run")
			res, err := experiments.Run(id, cfg)
			tr.end(sp)
			r.ops++
			if err != nil {
				r.failed++
				r.gateErr = fmt.Errorf("experiments.Run(%s): %w", id, err)
				continue
			}
			digest.Write([]byte(res.Render()))
			if tr != nil {
				wall := time.Since(t0).Seconds()
				var m1 runtime.MemStats
				runtime.ReadMemStats(&m1)
				alloc := float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6
				m, b, i := col.totals()
				msgs, bytes, intra = msgs+m, bytes+b, intra+i
				ev, q := col.events()
				events, runS = events+ev, runS+wall
				r.layer["sim.max_queue"] = max(r.layer["sim.max_queue"], q)
				r.layer["experiments."+id+".wall_s"] += wall
				r.layer["experiments."+id+".alloc_mb"] += alloc
				r.layer["experiments."+id+".msgs"] += m
				tr.attr(sp, "seed", float64(seed))
				tr.attr(sp, "msgs", m)
				tr.attr(sp, "alloc_mb", alloc)
			}
		}
	}
	r.digest = hex.EncodeToString(digest.Sum(nil))
	if tr != nil {
		r.layer["sim.events"] = events
		r.layer["sim.events_per_s"] = ratio(events, runS)
		r.layer["transport.msgs"] = msgs
		r.layer["transport.bytes"] = bytes
		r.layer["intra_as_ratio"] = ratio(intra, bytes)
	}
	return r
}
