package telemetry

import (
	"fmt"
	"sync"

	"unap2p/internal/churn"
	"unap2p/internal/mobility"
	"unap2p/internal/sim"
	"unap2p/internal/transport"
	"unap2p/internal/underlay"
)

// Config parameterizes a Recorder.
type Config struct {
	// Capacity is the event ring size (default 4096). When the ring
	// fills: with a Sink, the buffered events drain to it; without one,
	// the oldest event is overwritten and counted in Summary.Overwritten.
	Capacity int
	// Sink, when non-nil, receives the manifest, every drained event, and
	// the closing summary as a JSONL run file.
	Sink *RunWriter
	// Manifest identifies the run; it is written to the sink immediately
	// and embedded in the in-memory Run.
	Manifest Manifest
}

// Recorder is the telemetry event bus: a bounded ring of events fed by
// the components it observes (transports, kernels, churn drivers,
// mobility models), draining to a JSONL sink, with a metrics snapshot
// taken at Close. Parameter sweeps may feed one recorder from several
// goroutines: the shared ring is mutex-guarded. The recorder is strictly
// a pure observer: attaching it changes no simulated result.
type Recorder struct {
	mu sync.Mutex

	ring  []Event
	start int // index of oldest buffered event
	n     int // events currently buffered

	recorded    uint64
	overwritten uint64
	samples     uint64

	sink    *RunWriter
	sinkErr error

	manifest Manifest
	reg      *Registry

	transports []*transport.Transport
	kernels    []*sim.Kernel
	sharded    []*sim.ShardedKernel
	churns     []*churn.Driver
	mobilities []*mobility.Model

	closed  bool
	summary Summary
}

// NewRecorder returns a recorder; the zero Config is usable (in-memory
// ring of 4096 events, no sink, empty manifest).
func NewRecorder(cfg Config) *Recorder {
	if cfg.Capacity <= 0 {
		cfg.Capacity = 4096
	}
	r := &Recorder{
		ring:     make([]Event, cfg.Capacity),
		sink:     cfg.Sink,
		manifest: cfg.Manifest,
		reg:      NewRegistry(),
	}
	if r.sink != nil {
		r.sinkErr = r.sink.WriteManifest(r.manifest)
	}
	return r
}

// Registry exposes the recorder's metric registry, so callers can
// register application-level counters, histograms, or gauges
// to be included in the closing snapshot.
func (r *Recorder) Registry() *Registry { return r.reg }

// Record appends one event to the ring (draining or overwriting on
// overflow, see Config.Capacity).
func (r *Recorder) Record(e Event) {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.recorded++
	if r.n == len(r.ring) {
		if r.sink != nil {
			r.drainLocked()
		} else {
			r.start = (r.start + 1) % len(r.ring)
			r.n--
			r.overwritten++
		}
	}
	r.ring[(r.start+r.n)%len(r.ring)] = e
	r.n++
	r.mu.Unlock()
}

// drainLocked flushes all buffered events to the sink. Caller holds mu.
func (r *Recorder) drainLocked() {
	for i := 0; i < r.n; i++ {
		e := r.ring[(r.start+i)%len(r.ring)]
		if err := r.sink.WriteEvent(e); err != nil && r.sinkErr == nil {
			r.sinkErr = err
		}
	}
	r.start, r.n = 0, 0
}

// recordSample streams one probe sample into the run file, preserving
// record order: buffered events drain to the sink first, so a sample
// always sits after every event it could have observed. Sink-less
// recorders just count it for the summary. Called by Probe.Sample.
func (r *Recorder) recordSample(s Sample) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return
	}
	r.samples++
	if r.sink == nil {
		return
	}
	r.drainLocked()
	if err := r.sink.WriteSample(s); err != nil && r.sinkErr == nil {
		r.sinkErr = err
	}
}

// Events returns the currently buffered events, oldest first. With a
// sink attached this is only the tail not yet drained.
func (r *Recorder) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, r.n)
	for i := 0; i < r.n; i++ {
		out[i] = r.ring[(r.start+i)%len(r.ring)]
	}
	return out
}

// Recorded reports the total events seen (including drained and
// overwritten ones).
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
// events processed, queue high-water mark) in the closing summary.
func (r *Recorder) ObserveKernel(k *sim.Kernel) {
	if k == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, have := range r.kernels {
		if have == k {
			return
		}
	}
	r.kernels = append(r.kernels, k)
}

// ObserveShardedKernel includes a sharded kernel's run statistics in the
// closing summary: aggregate epoch/cross-shard counters plus per-shard
// processed / max-queue / cross-bytes gauges, so run files and /metrics
// show shard balance.
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
// CatChurn event and the final join/leave totals enter the summary.
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

// Close drains the ring, takes the final metrics snapshot, writes the
// summary to the sink (when present), and returns the first sink error
// encountered. Further Record calls are ignored. Close is idempotent.
func (r *Recorder) Close() error {
	r.mu.Lock()
	if r.closed {
		err := r.sinkErr
		r.mu.Unlock()
		return err
	}
	if r.sink != nil {
		r.drainLocked()
	}
	var finished sim.Time
	for _, k := range r.kernels {
		if now := k.Now(); now > finished {
			finished = now
		}
	}
	for _, sk := range r.sharded {
		if now := sk.Now(); now > finished {
			finished = now
		}
	}
	r.summary = Summary{
		FinishedAt:  finished,
		Events:      r.recorded,
		Overwritten: r.overwritten,
		Samples:     r.samples,
	}
	r.closed = true
	r.mu.Unlock()

	// Snapshot outside the lock: it re-enters r.mu and touches observed
	// components, and closed=true already freezes the event stream.
	r.summary.Metrics = r.Snapshot()

	r.mu.Lock()
	defer r.mu.Unlock()
	if r.sink != nil {
		if err := r.sink.WriteSummary(r.summary); err != nil && r.sinkErr == nil {
			r.sinkErr = err
		}
		if err := r.sink.Flush(); err != nil && r.sinkErr == nil {
			r.sinkErr = err
		}
	}
	return r.sinkErr
}

// Summary returns the closing summary; valid after Close.
func (r *Recorder) Summary() Summary {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.summary
}
