// Package transport is the unified message layer between every overlay and
// the simulated underlay. The paper's conclusion (§7) calls for "a general
// architecture for underlay awareness in which different underlay
// information can be collected and used"; in unap2p that architecture is a
// single instrumented send path:
//
//	sim.Kernel ── schedules deliveries
//	underlay.Network ── routes bytes, charges links, computes latency
//	transport.Transport ── THIS LAYER: counts, traces, drops
//	overlays (gnutella, kademlia, chord, …) ── protocol logic only
//	metrics ── counters, histograms, AS-pair traffic matrices
//	telemetry ── observes it all: run recording, probes, exports
//
// Every overlay holds a *Transport, and every overlay message — one-way
// sends, request/reply round trips, and latency probes — goes through
// it. It provides:
//
//   - per-message-type counters (Counters) and latency histograms,
//   - centralized intra-AS vs cross-ISP byte accounting (StatsFor,
//     AllStats) plus optional per-type traffic matrices (MatrixFor),
//   - one hook each way: Trace observes every message (drops included),
//     Drop discards a message before it reaches the underlay — the way
//     internal/chaos injects seeded loss bursts and AS partitions for
//     the churn/failure robustness studies of §6,
//   - kernel-integrated delivery scheduling (Deliver).
//
// With no Drop hook the layer is a pure observer: latencies and byte
// accounting are bit-identical to calling underlay.Network.Send
// directly, so fixed-seed experiment results are unchanged by routing
// traffic through it.
package transport

import (
	"sort"
	"strings"

	"unap2p/internal/metrics"
	"unap2p/internal/sim"
	"unap2p/internal/underlay"
)

// Result reports the outcome of one transport operation.
type Result struct {
	// Latency is the one-way delivery latency for Send, or the full
	// round-trip latency for RoundTrip and Probe. Zero when the message
	// was dropped.
	Latency sim.Duration
	// OK reports whether the message (and, for round trips, its reply)
	// was delivered. Only the Drop hook makes it false.
	OK bool
}

// Event describes one message for tracing.
type Event struct {
	From, To *underlay.Host
	Type     string
	Bytes    uint64
	// Latency is the one-way delivery latency (0 when dropped).
	Latency sim.Duration
	// Dropped reports that the Drop hook discarded the message.
	Dropped bool
	// At is the simulated send time, stamped from the transport's kernel
	// (0 for kernel-less transports, whose sends are not on a timeline).
	At sim.Time
}

// typeStats accumulates per-message-type accounting, and holds every
// per-type handle Send needs so one map lookup serves the whole path.
type typeStats struct {
	dropped           uint64
	bytes, intraBytes uint64
	latency           *metrics.Histogram
	// counter is the type's entry in Transport.msgs, and its count of
	// send attempts. It is nil until the type's first Send: a record
	// MatrixFor created ahead of any traffic holds only matrix and stays
	// out of every listing until then.
	counter *metrics.Counter
	// matrix is the traffic matrix MatrixFor registered for the type
	// (shared with the other types of that call), or nil.
	matrix *metrics.TrafficMatrix
}

// Stats is a read-only snapshot of one message type's accounting.
type Stats struct {
	Type string
	// Msgs counts send attempts; Dropped counts those the Drop hook
	// discarded.
	Msgs, Dropped uint64
	// Bytes is delivered payload; IntraBytes the share whose endpoints
	// lay in the same AS. Inter-ISP bytes are Bytes - IntraBytes.
	Bytes, IntraBytes uint64
	// Latency is the one-way delivery latency histogram (live view).
	Latency *metrics.Histogram
}

// Transport is the classic simulator's data plane: every overlay holds
// one and sends through it.
type Transport struct {
	u *underlay.Network
	k *sim.Kernel

	// Drop, when non-nil, is consulted once per message before it reaches
	// the underlay; returning true discards the message. It is the one way
	// faults get in: internal/chaos installs time-gated AS partitions and
	// per-AS loss bursts here, tests a flat seeded loss rate. Any
	// randomness inside Drop must come from its own seeded stream to keep
	// runs reproducible; a hook installed over an existing one calls the
	// existing one first.
	Drop func(from, to *underlay.Host) bool
	// Retry is the default policy RoundTrip applies when either leg is
	// dropped; retries are real (counted, charged) messages, so overlay
	// recovery traffic stays bounded and visible. The zero value retries
	// nothing. Callers with per-peer policies (internal/resilience) pass
	// their own via RoundTripWith instead.
	Retry RetryPolicy
	// Trace, when non-nil, observes every message (including drops).
	Trace func(Event)

	msgs  *metrics.CounterSet
	types map[string]*typeStats
}

// New returns a Transport over the given underlay. k may be nil for
// overlays that never schedule deliveries on a kernel.
func New(u *underlay.Network, k *sim.Kernel) *Transport {
	if u == nil {
		panic("transport: nil underlay")
	}
	return &Transport{
		u:     u,
		k:     k,
		msgs:  metrics.NewCounterSet(),
		types: make(map[string]*typeStats),
	}
}

// Over is shorthand for New(u, nil) — a transport for kernel-less overlays.
func Over(u *underlay.Network) *Transport { return New(u, nil) }

// Underlay returns the wrapped network.
func (t *Transport) Underlay() *underlay.Network { return t.u }

// Kernel returns the event kernel (nil when built without one).
func (t *Transport) Kernel() *sim.Kernel { return t.k }

// Counters exposes the per-message-type counters.
func (t *Transport) Counters() *metrics.CounterSet { return t.msgs }

// MatrixFor returns the traffic matrix shared by the given message types,
// creating and registering one on first use. Subsequent Sends of any of
// the types update it.
func (t *Transport) MatrixFor(msgTypes ...string) *metrics.TrafficMatrix {
	if len(msgTypes) == 0 {
		panic("transport: MatrixFor needs at least one message type")
	}
	var m *metrics.TrafficMatrix
	for _, ty := range msgTypes {
		if st := t.types[ty]; st != nil && st.matrix != nil {
			m = st.matrix
			break
		}
	}
	if m == nil {
		m = metrics.NewTrafficMatrix()
	}
	for _, ty := range msgTypes {
		t.record(ty).matrix = m
	}
	return m
}

// now returns the kernel's simulated time for event stamping (0 when the
// transport is kernel-less).
func (t *Transport) now() sim.Time {
	if t.k == nil {
		return 0
	}
	return t.k.Now()
}

// AddTrace chains fn after any already-installed Trace observer, so
// several consumers (a debug printer, a telemetry recorder) can watch the
// same transport without clobbering each other.
func (t *Transport) AddTrace(fn func(Event)) {
	if fn == nil {
		return
	}
	if prev := t.Trace; prev != nil {
		t.Trace = func(e Event) { prev(e); fn(e) }
		return
	}
	t.Trace = fn
}

// record returns msgType's accounting record, creating an empty one.
func (t *Transport) record(msgType string) *typeStats {
	st := t.types[msgType]
	if st == nil {
		st = &typeStats{}
		t.types[msgType] = st
	}
	return st
}

// stats returns msgType's record, completing it (counter, histogram) on
// the type's first Send.
func (t *Transport) stats(msgType string) *typeStats {
	st := t.record(msgType)
	if st.counter == nil {
		st.counter = t.msgs.Get(msgType)
		st.latency = metrics.NewLatencyHistogram()
	}
	return st
}

// Send delivers one message: the type counter is incremented, the bytes
// are charged to the underlay path, and the one-way latency is returned.
// A message the Drop hook discards is counted but charges nothing.
func (t *Transport) Send(from, to *underlay.Host, bytes uint64, msgType string) Result {
	st := t.stats(msgType)
	st.counter.Inc()
	if t.Drop != nil && t.Drop(from, to) {
		st.dropped++
		if t.Trace != nil {
			t.Trace(Event{From: from, To: to, Type: msgType, Bytes: bytes, Dropped: true, At: t.now()})
		}
		return Result{}
	}
	lat := t.u.Send(from, to, bytes)
	st.bytes += bytes
	if from.AS.ID == to.AS.ID {
		st.intraBytes += bytes
	}
	st.latency.Observe(float64(lat))
	if m := st.matrix; m != nil {
		m.Add(from.AS.ID, to.AS.ID, bytes)
	}
	if t.Trace != nil {
		t.Trace(Event{From: from, To: to, Type: msgType, Bytes: bytes, Latency: lat, At: t.now()})
	}
	return Result{Latency: lat, OK: true}
}

// RetryPolicy governs how RoundTrip reacts to a dropped leg. The zero
// value makes a single attempt and gives up — identical to the seed
// behaviour, so existing fixed-seed results are unchanged.
type RetryPolicy struct {
	// Budget is the number of extra attempts after the first; each retry
	// re-sends the full request (and, on delivery, the reply), so every
	// attempt is a real counted, charged message.
	Budget int
	// Backoff, when non-nil, returns the wait inserted before retry
	// attempt n (1-based: Backoff(1) precedes the first re-send). Waits
	// are charged into the successful Result.Latency so recovery time is
	// visible to the caller. A resilience layer supplies a jittered
	// exponential backoff here from its own seeded stream, so the Drop
	// hook's stream is undisturbed.
	Backoff func(attempt int) sim.Duration
}

// RoundTrip performs a request/reply exchange under the transport's
// default Retry policy. It returns the summed round-trip latency of the
// successful attempt plus any backoff waits spent reaching it.
func (t *Transport) RoundTrip(from, to *underlay.Host, reqBytes, respBytes uint64,
	reqType, respType string) Result {
	return t.RoundTripWith(t.Retry, from, to, reqBytes, respBytes, reqType, respType)
}

// RoundTripWith is RoundTrip with a caller-supplied retry policy — the
// seam that lets per-peer policies (failure detectors, backoff schedules)
// drive the shared send path without mutating transport-wide state.
func (t *Transport) RoundTripWith(p RetryPolicy, from, to *underlay.Host,
	reqBytes, respBytes uint64, reqType, respType string) Result {
	var waited sim.Duration
	for attempt := 0; ; attempt++ {
		req := t.Send(from, to, reqBytes, reqType)
		if req.OK {
			resp := t.Send(to, from, respBytes, respType)
			if resp.OK {
				return Result{Latency: waited + req.Latency + resp.Latency, OK: true}
			}
		}
		if attempt >= p.Budget {
			return Result{}
		}
		if p.Backoff != nil {
			waited += p.Backoff(attempt + 1)
		}
	}
}

// Probe measures the RTT between two hosts with a probe/response pair of
// the given size, counted under type "probe".
func (t *Transport) Probe(from, to *underlay.Host, bytes uint64) Result {
	return t.RoundTrip(from, to, bytes, bytes, "probe", "probe")
}

// Deliver sends a message and schedules fn on the kernel at its delivery
// time. A dropped message never runs fn. It reports whether delivery was
// scheduled.
func (t *Transport) Deliver(from, to *underlay.Host, bytes uint64, msgType string, fn func()) bool {
	if t.k == nil {
		panic("transport: Deliver requires a kernel")
	}
	res := t.Send(from, to, bytes, msgType)
	if !res.OK {
		return false
	}
	t.k.Schedule(res.Latency, fn)
	return true
}

// TrafficMatrices returns each registered matrix exactly once, keyed by
// the sorted "+"-joined message types that share it — the enumeration the
// telemetry exporter snapshots.
func (t *Transport) TrafficMatrices() map[string]*metrics.TrafficMatrix {
	byMatrix := make(map[*metrics.TrafficMatrix][]string)
	for ty, st := range t.types {
		if st.matrix != nil {
			byMatrix[st.matrix] = append(byMatrix[st.matrix], ty)
		}
	}
	out := make(map[string]*metrics.TrafficMatrix, len(byMatrix))
	for m, tys := range byMatrix {
		sort.Strings(tys)
		out[strings.Join(tys, "+")] = m
	}
	return out
}

// TypeNames returns every message type seen so far, sorted.
func (t *Transport) TypeNames() []string {
	names := make([]string, 0, len(t.types))
	for ty, st := range t.types {
		if st.counter != nil {
			names = append(names, ty)
		}
	}
	sort.Strings(names)
	return names
}

// StatsFor returns the accounting snapshot for one message type (zero
// Stats with a nil histogram when the type was never sent).
func (t *Transport) StatsFor(msgType string) Stats {
	st := t.types[msgType]
	if st == nil || st.counter == nil {
		return Stats{Type: msgType}
	}
	return Stats{
		Type: msgType, Msgs: st.counter.Value(), Dropped: st.dropped,
		Bytes: st.bytes, IntraBytes: st.intraBytes, Latency: st.latency,
	}
}

// AllStats returns snapshots for every message type, sorted by type.
func (t *Transport) AllStats() []Stats {
	out := make([]Stats, 0, len(t.types))
	for _, n := range t.TypeNames() {
		out = append(out, t.StatsFor(n))
	}
	return out
}
