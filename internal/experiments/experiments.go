// Package experiments regenerates every table and figure of the paper
// (and of the primary sources it reprints). Each experiment is a named
// Runner producing a Result — a text table plus notes recording the
// paper's reference values — so that `unapctl run -exp <id>` and the
// benchmark harness print the same artifacts the paper reports.
package experiments

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"unap2p/internal/churn"
	"unap2p/internal/core"
	"unap2p/internal/linalg"
	"unap2p/internal/mobility"
	"unap2p/internal/overlay/gnutella"
	"unap2p/internal/overlay/kademlia"
	"unap2p/internal/sim"
	"unap2p/internal/topology"
	"unap2p/internal/transport"
	"unap2p/internal/underlay"
	"unap2p/internal/workload"
)

// Observer receives the live instrumented components an experiment
// constructs — the opt-in attachment point for the telemetry Recorder
// (which implements this interface) without this package importing it.
// Observers must be pure: attaching one may not change any simulated
// result, only watch it. All methods are invoked before the component
// carries workload, and may be invoked from concurrent goroutines during
// multi-seed sweeps.
//
// An observer may additionally implement, with these exact
// builtin-typed signatures,
//
//	ObserveHealth(name string, stats func() map[string]float64)
//	Sample()
//
// to receive overlay-health sources and round-boundary sampling hooks
// (see observeHealth / sampleObs), as the telemetry Recorder does.
type Observer interface {
	ObserveTransport(*transport.Transport)
	ObserveKernel(*sim.Kernel)
	ObserveChurn(*churn.Driver)
	ObserveMobility(*mobility.Model)
}

// RunConfig parameterizes an experiment run.
type RunConfig struct {
	// Seed roots all randomness; identical seeds reproduce identical
	// results bit-for-bit.
	Seed int64
	// Scale multiplies workload sizes (1.0 = the default laptop-scale
	// setup; benchmarks use smaller, studies larger).
	Scale float64
	// Obs, when non-nil, is attached to every transport, kernel, churn
	// driver, and mobility model the experiment builds. nil (the
	// default) records nothing and leaves every construction identical
	// to the pre-telemetry code path.
	Obs Observer
	// Params carries optional per-experiment string parameters
	// (unapctl run -param name=value). Experiments read them through
	// param/paramInt; unknown keys are ignored. An absent map is
	// equivalent to an empty one, so existing fixed-seed runs are
	// untouched.
	Params map[string]string
}

// param returns Params[name], or def when absent/empty.
func (c RunConfig) param(name, def string) string {
	if v, ok := c.Params[name]; ok && v != "" {
		return v
	}
	return def
}

// paramInt returns Params[name] parsed as an int, or def when absent.
// A value that does not parse also yields def, and appends a note saying
// so to *notes: the run file's manifest records the value as given, so
// the result must say it was not used.
func (c RunConfig) paramInt(name string, def int, notes *[]string) int {
	v, ok := c.Params[name]
	if !ok {
		return def
	}
	n, err := strconv.Atoi(strings.TrimSpace(v))
	if err != nil {
		*notes = append(*notes, fmt.Sprintf("malformed param %s=%q ignored (want an integer); using %d", name, v, def))
		return def
	}
	return n
}

// newTransport builds a Transport and attaches the observer (and the
// kernel, when present; kernel-less overlays pass nil). Experiments
// construct every messenger through this so telemetry sees all traffic.
func (c RunConfig) newTransport(net *underlay.Network, k *sim.Kernel) *transport.Transport {
	tr := transport.New(net, k)
	if c.Obs != nil {
		if k != nil {
			c.Obs.ObserveKernel(k)
		}
		c.Obs.ObserveTransport(tr)
	}
	return tr
}

// observeChurn attaches the observer to a churn driver (and its kernel)
// and returns it.
func (c RunConfig) observeChurn(d *churn.Driver) *churn.Driver {
	if c.Obs != nil {
		c.Obs.ObserveKernel(d.Kernel)
		c.Obs.ObserveChurn(d)
	}
	return d
}

// observeMobility attaches the observer to a mobility model (and its
// kernel) and returns it.
func (c RunConfig) observeMobility(m *mobility.Model) *mobility.Model {
	if c.Obs != nil {
		c.Obs.ObserveKernel(m.Kernel)
		c.Obs.ObserveMobility(m)
	}
	return m
}

// observeSharded attaches the observer to a sharded kernel when it
// supports one (the telemetry Recorder does; the capability is
// structural so this package never imports internal/telemetry).
func (c RunConfig) observeSharded(sk *sim.ShardedKernel) {
	if o, ok := c.Obs.(interface {
		ObserveShardedKernel(*sim.ShardedKernel)
	}); ok {
		o.ObserveShardedKernel(sk)
	}
}

// observeHealth registers an overlay-health source with the observer
// when it supports health sampling — the telemetry Recorder does (and
// ignores it unless sampling is on); nil silently doesn't. The
// capability check is structural over builtin-composed types so this
// package still never imports internal/telemetry. stats must be a pure
// deterministic read: the recorder calls it mid-run and results must
// stay bit-identical.
func (c RunConfig) observeHealth(name string, stats func() map[string]float64) {
	if o, ok := c.Obs.(interface {
		ObserveHealth(string, func() map[string]float64)
	}); ok {
		o.ObserveHealth(name, stats)
	}
}

// sampleObs takes one sample, for experiments that drive overlays in
// rounds without a sim kernel (Kademlia lookup loops, swarm rounds,
// Vivaldi iterations) — kernel-driven experiments get sampled by the
// recorder's own sim-time tick instead. No-op unless the observer is a
// sampler (a telemetry.Recorder with sampling on).
func (c RunConfig) sampleObs() {
	if o, ok := c.Obs.(interface{ Sample() }); ok {
		o.Sample()
	}
}

func (c RunConfig) scaled(n int) int {
	if c.Scale <= 0 {
		return n
	}
	s := int(float64(n) * c.Scale)
	if s < 1 {
		s = 1
	}
	return s
}

// transitStub builds the standard experiment world: a transit–stub
// underlay of transits core ISPs and stubs local ISPs, 5 ms inside an AS
// and linkDelay per inter-AS link, with perAS hosts in every stub whose
// access delays are uniform in [1, maxAccess). Its randomness comes from
// src's "topo" and "place" streams. Every experiment on this world calls
// it; a world with link jitter, multihoming or stub peering builds its
// own TransitStubConfig.
func transitStub(src *sim.Source, transits, stubs int, linkDelay sim.Duration,
	perAS int, maxAccess sim.Duration) (*underlay.Network, []*underlay.Host) {
	net := topology.TransitStub(topology.TransitStubConfig{
		Config:   topology.Config{IntraDelay: 5, LinkDelay: linkDelay, Rand: src.Stream("topo")},
		Transits: transits, Stubs: stubs,
	})
	return net, topology.PlaceHosts(net, perAS, false, 1, maxAccess, src.Stream("place"))
}

// beacons measures m landmarks, the hosts 0, step, 2·step, …, with rtt.
// It returns their m×m delay matrix (zero diagonal, entry (i, j) =
// rtt(i·step, j·step)) and a function giving host i's delays to them,
// rtt(i, b·step) for each beacon b. Arguments keep this order because
// routes may be asymmetric. The delay vector is scratch that the next
// call overwrites: its readers (ICS.HostCoord, ComputeBin) keep none of it.
func beacons(rtt func(i, j int) float64, m, step int) (*linalg.Matrix, func(i int) []float64) {
	dm := linalg.NewMatrix(m, m)
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			if i != j {
				dm.Set(i, j, rtt(i*step, j*step))
			}
		}
	}
	delays := make([]float64, m)
	return dm, func(i int) []float64 {
		for b := range delays {
			delays[b] = rtt(i, b*step)
		}
		return delays
	}
}

// joinGnutella builds a Gnutella overlay over net on a kernel of its own
// (ov.K): every host joins, as an ultrapeer when ultra(i) holds for its
// index (every host when ultra is nil).
func (c RunConfig) joinGnutella(net *underlay.Network, hosts []*underlay.Host, ultra func(i int) bool,
	sel core.Selector, gcfg gnutella.Config, r *rand.Rand) *gnutella.Overlay {
	ov := gnutella.New(c.newTransport(net, sim.NewKernel()), sel, gcfg, r)
	for i, h := range hosts {
		ov.AddNode(h, ultra == nil || ultra(i))
	}
	ov.JoinAll()
	return ov
}

// bootKademlia joins every host to a Kademlia DHT that sends through tr
// and bootstraps it from 4 random seeds a node.
func bootKademlia(tr *transport.Transport, hosts []*underlay.Host, sel core.Selector,
	kcfg kademlia.Config, r *rand.Rand) *kademlia.DHT {
	d := kademlia.New(tr, sel, kcfg, r)
	for _, h := range hosts {
		d.AddNode(h)
	}
	d.Bootstrap(4)
	return d
}

// meanLookups runs n probe lookups through one and returns their mean
// hops, latency and messages. It samples the observer after every 30th
// lookup, which gives a sampled run its routing-table locality curve.
func (c RunConfig) meanLookups(n int, one func() (hops int, lat sim.Duration, msgs int)) (hops, lat, msgs float64) {
	for i := 0; i < n; i++ {
		h, l, m := one()
		hops += float64(h)
		lat += float64(l)
		msgs += float64(m)
		if (i+1)%30 == 0 {
			c.sampleObs()
		}
	}
	return hops / float64(n), lat / float64(n), msgs / float64(n)
}

// arm is one side of a comparison: on switches the technique under test,
// tag names the arm's random-stream fork or health source, and label
// names its result row.
type arm struct {
	on         bool
	tag, label string
}

// queryList draws up to n queries from gen at time 0; a draw the
// generator cannot serve is skipped.
func queryList(gen *workload.QueryGen, n int) []workload.Query {
	var queries []workload.Query
	for i := 0; i < n; i++ {
		if q, ok := gen.Next(0); ok {
			queries = append(queries, q)
		}
	}
	return queries
}

// holdersExcept lists the hosts that hold q's item, the requester left out.
func holdersExcept(catalog *workload.Catalog, q workload.Query) []underlay.HostID {
	var holders []underlay.HostID
	for _, h := range catalog.Replicas(q.Item) {
		if h != q.From {
			holders = append(holders, h)
		}
	}
	return holders
}

// Result is one regenerated artifact.
type Result struct {
	// ID is the experiment identifier (e.g. "tab1-gnutella-msgs").
	ID string `json:"id"`
	// Title names the paper artifact being reproduced.
	Title string `json:"title"`
	// Headers and Rows form the result table.
	Headers []string   `json:"headers"`
	Rows    [][]string `json:"rows"`
	// Notes record the paper's reference values and the shape checks the
	// run is expected to satisfy.
	Notes []string `json:"notes,omitempty"`
}

// Render formats the result as an aligned text table.
func (r Result) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s — %s ==\n", r.ID, r.Title)
	widths := make([]int, len(r.Headers))
	for i, h := range r.Headers {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], c)
		}
		sb.WriteByte('\n')
	}
	line(r.Headers)
	for i, w := range widths {
		if i > 0 {
			sb.WriteString("  ")
		}
		sb.WriteString(strings.Repeat("-", w))
	}
	sb.WriteByte('\n')
	for _, row := range r.Rows {
		line(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&sb, "note: %s\n", n)
	}
	return sb.String()
}

// Runner executes one experiment.
type Runner func(RunConfig) Result

// registry maps experiment ids to runners, populated by init functions in
// the per-experiment files.
var registry = map[string]Runner{}

// titles keeps a short description per id for listings.
var titles = map[string]string{}

func register(id, title string, r Runner) {
	if _, dup := registry[id]; dup {
		panic("experiments: duplicate id " + id)
	}
	registry[id] = r
	titles[id] = title
}

// Run executes the experiment with the given id. The result's ID is that
// id: runners leave it unset.
func Run(id string, cfg RunConfig) (Result, error) {
	r, ok := registry[id]
	if !ok {
		return Result{}, fmt.Errorf("unknown experiment %q (try one of %v)", id, IDs())
	}
	res := r(cfg)
	res.ID = id
	return res, nil
}

// IDs lists registered experiment ids in sorted order.
func IDs() []string {
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// TitleOf returns the one-line description of an experiment.
func TitleOf(id string) string { return titles[id] }

func f1(v float64) string  { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string  { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string  { return fmt.Sprintf("%.3f", v) }
func pct(v float64) string { return fmt.Sprintf("%.2f%%", 100*v) }
func d(v uint64) string    { return fmt.Sprintf("%d", v) }
func di(v int) string      { return fmt.Sprintf("%d", v) }
