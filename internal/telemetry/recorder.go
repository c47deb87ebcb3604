package telemetry

import (
	"fmt"
	"math"
	"sync"

	"unap2p/internal/churn"
	"unap2p/internal/mobility"
	"unap2p/internal/sim"
	"unap2p/internal/transport"
	"unap2p/internal/underlay"
)

// Config parameterizes a Recorder. The zero Config is usable: no sink,
// empty manifest, sampling off.
type Config struct {
	// Sink, when non-nil, receives the manifest, every event and sample
	// as it is recorded, and the closing summary as a JSONL run file.
	Sink *RunWriter
	// Manifest identifies the run; it is written to the sink immediately.
	Manifest Manifest
	// Interval, when positive, turns sampling on: every observed kernel
	// gets a daemon tick at this sim-time period, and Sample and
	// ObserveHealth take effect. 0 leaves sampling off, so the run file
	// carries no sample records.
	Interval sim.Duration
}

// Recorder is the telemetry observer: it is fed by the components it
// observes (transports, kernels, churn drivers, mobility models), writes
// each event through to a JSONL sink as it happens, optionally samples
// every metric and health source over simulated time, and takes a
// metrics snapshot at Close. Parameter sweeps may feed one recorder from
// several goroutines: every method is mutex-guarded (but see Sample).
// The recorder is strictly a pure observer: every callback is a read,
// sampling ticks never extend a run (see sim.AtDaemon), and attaching it
// changes no simulated result.
type Recorder struct {
	mu sync.Mutex

	recorded uint64
	samples  uint64

	sink     *RunWriter
	reg      *Registry
	interval sim.Duration
	series   *Series

	transports []*transport.Transport
	kernels    []*sim.Kernel
	sharded    []*sim.ShardedKernel
	churns     []*churn.Driver
	mobilities []*mobility.Model
	health     []healthSource
	healthSeen map[string]int

	latest  MetricsSnapshot
	hasSnap bool

	closed  bool
	summary Summary
}

type healthSource struct {
	name string
	fn   func() map[string]float64
}

// NewRecorder returns a recorder and writes cfg.Manifest to the sink.
func NewRecorder(cfg Config) *Recorder {
	r := &Recorder{
		sink:       cfg.Sink,
		reg:        NewRegistry(),
		interval:   cfg.Interval,
		series:     NewSeries(0),
		healthSeen: make(map[string]int),
	}
	if r.sink != nil {
		r.sink.WriteManifest(cfg.Manifest) // a failure sticks in the writer; Close reports it
	}
	return r
}

// Registry exposes the recorder's metric registry, so callers can
// register application-level counters, histograms, or gauges
// to be included in the closing snapshot.
func (r *Recorder) Registry() *Registry { return r.reg }

// Series returns the in-memory store of the samples taken so far (the
// most recent 4096; the run file receives every one).
func (r *Recorder) Series() *Series { return r.series }

// Record writes one event through to the sink, in record order; without
// a sink it is only counted.
func (r *Recorder) Record(e Event) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return
	}
	r.recorded++
	if r.sink != nil {
		r.sink.WriteEvent(e)
	}
}

// Recorded reports the total events seen.
func (r *Recorder) Recorded() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.recorded
}

// ObserveTransport attaches the recorder to a transport: every message
// (including drops) becomes a CatTransport event, and the transport's
// counters, per-type latency histograms and byte accounting, and traffic
// matrices are snapshotted into the closing summary.
func (r *Recorder) ObserveTransport(t *transport.Transport) {
	if t == nil {
		return
	}
	r.mu.Lock()
	r.transports = append(r.transports, t)
	r.mu.Unlock()
	t.AddTrace(func(e transport.Event) { r.Record(transportEvent(e)) })
}

// ObserveKernel includes a kernel's run statistics (simulated end time,
// events processed, queue high-water mark) in the closing summary and,
// when sampling is on, starts the sampling tick: a daemon event every
// Interval of that kernel's simulated time, which fires throughout
// bounded runs but never keeps Drain alive on its own.
func (r *Recorder) ObserveKernel(k *sim.Kernel) {
	if k == nil {
		return
	}
	r.mu.Lock()
	for _, have := range r.kernels {
		if have == k {
			r.mu.Unlock()
			return
		}
	}
	r.kernels = append(r.kernels, k)
	r.mu.Unlock()
	if r.interval > 0 {
		k.EveryDaemon(r.interval, r.Sample)
	}
}

// ObserveShardedKernel includes a sharded kernel's run statistics in the
// closing summary — aggregate epoch/cross-shard counters plus per-shard
// processed / max-queue / cross-bytes gauges, so run files and /metrics
// show shard balance — and its time in sample stamps. It installs no
// sampling tick: in a sharded run, sampling is only safe at epoch
// barriers, so the experiment wires the kernel's OnBarrier hook to
// Sample (usually with a stride).
func (r *Recorder) ObserveShardedKernel(sk *sim.ShardedKernel) {
	if sk == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, have := range r.sharded {
		if have == sk {
			return
		}
	}
	r.sharded = append(r.sharded, sk)
}

// ObserveChurn attaches to a churn driver: every join/leave becomes a
// CatChurn event, the final join/leave totals enter the summary, and
// samples carry the driver's live population as health:churn:online.
func (r *Recorder) ObserveChurn(d *churn.Driver) {
	if d == nil {
		return
	}
	r.mu.Lock()
	r.churns = append(r.churns, d)
	r.mu.Unlock()
	prev := d.Trace
	d.Trace = func(h *underlay.Host, up bool) {
		if prev != nil {
			prev(h, up)
		}
		typ := "leave"
		if up {
			typ = "join"
		}
		r.Record(Event{At: d.Kernel.Now(), Cat: CatChurn, Type: typ, From: hostID(h), To: -1})
	}
}

// ObserveMobility attaches to a mobility model: every handover becomes a
// CatMobility event (Detail "as<from>→as<to>") and the final move total
// enters the summary.
func (r *Recorder) ObserveMobility(m *mobility.Model) {
	if m == nil {
		return
	}
	r.mu.Lock()
	r.mobilities = append(r.mobilities, m)
	r.mu.Unlock()
	prev := m.Trace
	m.Trace = func(h *underlay.Host, from, to mobility.AttachmentPoint) {
		if prev != nil {
			prev(h, from, to)
		}
		r.Record(Event{
			At: m.Kernel.Now(), Cat: CatMobility, Type: "move",
			From: hostID(h), To: -1,
			Detail: fmt.Sprintf("as%d→as%d", from.AS.ID, to.AS.ID),
		})
	}
}

// ObserveHealth registers a health source sampled at every tick as
// "health:<name>:<key>" gauges; a no-op when sampling is off.
// Registering the same name again auto-suffixes it (name, name2, …), so
// an experiment that builds the same overlay per variant keeps the
// curves separable. The parameter is a plain func so packages that must
// not import telemetry (notably internal/experiments) can feed it
// through a structural interface check. stats must return the same keys
// on every call and compute its values by pure reads in deterministic
// order: the recorder samples it mid-run, and a sampled run must stay
// bit-identical to an unsampled one.
func (r *Recorder) ObserveHealth(name string, stats func() map[string]float64) {
	if stats == nil || r.interval <= 0 {
		return
	}
	r.mu.Lock()
	n := r.healthSeen[name]
	r.healthSeen[name] = n + 1
	r.health = append(r.health, healthSource{name: prefixed(name, n), fn: stats})
	r.mu.Unlock()
}

// Sample takes one sample immediately — the full metrics snapshot
// flattened to scalars, every health source, and each churn driver's
// live population — appends it to the Series and writes it through to
// the sink; a no-op when sampling is off. Kernel ticks call it
// automatically; experiments without a kernel call it at round
// boundaries. It must run on the goroutine driving the simulation, since
// the snapshot reads the observed transports' unsynchronised accounting:
// a sampling recorder must not be shared across concurrent sweep workers.
func (r *Recorder) Sample() {
	if r.interval <= 0 {
		return
	}
	snap := r.Snapshot()

	r.mu.Lock()
	defer r.mu.Unlock()
	r.latest, r.hasSnap = snap, true
	if r.closed {
		return
	}
	values := snap.Flatten()
	for _, h := range r.health {
		for k, v := range h.fn() {
			values["health:"+h.name+":"+k] = v
		}
	}
	for i, d := range r.churns {
		values["health:"+prefixed("churn", i)+":online"] = float64(d.Online())
	}
	for k, v := range values {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			delete(values, k)
		}
	}
	smp := Sample{Seq: r.samples, At: r.nowLocked(), Values: values}
	r.samples++
	r.series.add(smp)
	if r.sink != nil {
		r.sink.WriteSample(smp)
	}
}

// LatestSnapshot returns the metrics snapshot cached by the most recent
// sample (empty before the first tick). Unlike Snapshot it is safe to
// call from any goroutine at any time — this is the source Serve renders
// /metrics from while the simulation is still running.
func (r *Recorder) LatestSnapshot() MetricsSnapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.hasSnap {
		return newMetricsSnapshot()
	}
	return r.latest
}

// nowLocked is the latest simulated time across observed kernels.
// Caller holds mu.
func (r *Recorder) nowLocked() sim.Time {
	var now sim.Time
	for _, k := range r.kernels {
		now = max(now, k.Now())
	}
	for _, sk := range r.sharded {
		now = max(now, sk.Now())
	}
	return now
}

// prefixed returns name for i==0 and name<i+1> after — "transport",
// "transport2", … — so multi-transport runs keep metrics separable while
// the common single-transport case stays clean.
func prefixed(name string, i int) string {
	if i == 0 {
		return name
	}
	return fmt.Sprintf("%s%d", name, i+1)
}

// Snapshot freezes everything the recorder observes — transports,
// kernels, churn, mobility, plus the user registry — into one
// MetricsSnapshot. It can be called mid-run; Close calls it one final
// time for the summary.
func (r *Recorder) Snapshot() MetricsSnapshot {
	s := r.reg.Snapshot()
	r.mu.Lock()
	transports := append([]*transport.Transport(nil), r.transports...)
	kernels := append([]*sim.Kernel(nil), r.kernels...)
	sharded := append([]*sim.ShardedKernel(nil), r.sharded...)
	churns := append([]*churn.Driver(nil), r.churns...)
	mobilities := append([]*mobility.Model(nil), r.mobilities...)
	r.mu.Unlock()

	for i, t := range transports {
		p := prefixed("transport", i)
		for name, v := range t.Counters().Snapshot() {
			s.Counters[p+":msgs:"+name] = v
		}
		for _, st := range t.AllStats() {
			s.Counters[p+":bytes:"+st.Type] = st.Bytes
			s.Counters[p+":intra_bytes:"+st.Type] = st.IntraBytes
			if st.Dropped > 0 {
				s.Counters[p+":dropped:"+st.Type] = st.Dropped
			}
			s.Histograms[p+":latency:"+st.Type] = st.Latency.Snapshot()
		}
		for name, m := range t.TrafficMatrices() {
			s.Matrices[p+":matrix:"+name] = m.Snapshot()
		}
	}
	for i, k := range kernels {
		p := prefixed("kernel", i)
		st := k.Stats()
		s.Counters[p+":processed"] = st.Processed
		s.Gauges[p+":max_queue"] = float64(st.MaxQueue)
		s.Gauges[p+":now_ms"] = float64(st.Now)
	}
	for i, sk := range sharded {
		p := prefixed("kernel:sharded", i)
		st := sk.Stats()
		s.Counters[p+":processed"] = st.Processed
		s.Counters[p+":epochs"] = st.Epochs
		s.Counters[p+":cross_events"] = st.CrossEvents
		s.Counters[p+":cross_batches"] = st.CrossBatches
		s.Counters[p+":late_events"] = st.LateEvents
		s.Gauges[p+":now_ms"] = float64(st.Now)
		for _, sh := range st.Shards {
			pp := fmt.Sprintf("%s:shard%d", p, sh.Shard)
			s.Counters[pp+":processed"] = sh.Processed
			s.Counters[pp+":cross_bytes"] = sh.CrossBytes
			s.Gauges[pp+":max_queue"] = float64(sh.MaxQueue)
		}
	}
	for i, d := range churns {
		p := prefixed("churn", i)
		s.Counters[p+":joins"] = d.Joins
		s.Counters[p+":leaves"] = d.Leaves
	}
	for i, m := range mobilities {
		p := prefixed("mobility", i)
		s.Counters[p+":moves"] = m.Moves
	}
	return s
}

// Close takes the final metrics snapshot, writes the summary to the sink
// (when present) and flushes it, and returns the first sink error
// encountered. Further Record and Sample calls are ignored. Close is
// idempotent.
func (r *Recorder) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return r.sinkErr()
	}
	r.summary = Summary{FinishedAt: r.nowLocked(), Events: r.recorded, Samples: r.samples}
	r.closed = true
	r.mu.Unlock()

	// Snapshot outside the lock: it re-enters r.mu and touches observed
	// components, and closed=true already freezes the event stream.
	r.summary.Metrics = r.Snapshot()

	r.mu.Lock()
	defer r.mu.Unlock()
	if r.sink != nil {
		r.sink.WriteSummary(r.summary)
		r.sink.Flush()
	}
	return r.sinkErr()
}

// sinkErr is the sink's sticky first write error (nil without a sink).
func (r *Recorder) sinkErr() error {
	if r.sink == nil {
		return nil
	}
	return r.sink.Err()
}

// Summary returns the closing summary; valid after Close.
func (r *Recorder) Summary() Summary {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.summary
}
