// Package telemetry is the observability subsystem of unap2p: run
// recording, metrics export, and time series over simulated time.
//
// The paper's §3.2 and Table 2 insist that the *cost* of underlay
// awareness — probe traffic, oracle load, coordinate maintenance — be
// measured, not assumed. This package makes the transport counters,
// histograms and traffic matrices persistent and comparable:
//
//   - Recorder — the one observer. Transports, kernels, churn drivers
//     and mobility models attach to it; it writes each event through to
//     a JSONL run file, opened by a run Manifest (experiment, seed,
//     scale) and closed by a metrics Summary (counter / histogram /
//     traffic-matrix snapshots, kernel statistics). With a positive
//     Config.Interval it also samples every metric and registered
//     overlay health source over simulated time, into "sample" records
//     and an in-memory Series.
//   - Registry / MetricsSnapshot — freeze metrics.CounterSet, Histogram,
//     and TrafficMatrix into JSON and Prometheus text-format exports.
//
// Telemetry is strictly opt-in and a pure observer: it draws no
// randomness, perturbs no schedule, and mutates nothing it watches, so
// fixed-seed experiment results are bit-identical with or without a
// Recorder attached (asserted by TestRecorderIsPureObserver and
// TestProbeIsPureObserver).
//
// The run-file format and the `unapctl run -o / report / diff / series`
// workflow are documented in EXPERIMENTS.md.
package telemetry

import (
	"unap2p/internal/sim"
	"unap2p/internal/transport"
	"unap2p/internal/underlay"
)

// Event categories emitted by the built-in observers.
const (
	CatTransport = "transport" // one overlay message (possibly dropped)
	CatChurn     = "churn"     // a session transition (type "join"/"leave")
	CatMobility  = "mobility"  // a handover (type "move")
)

// Event is one telemetry record on the run timeline.
type Event struct {
	// At is the simulated time of the event (0 for kernel-less sources).
	At sim.Time `json:"at"`
	// Cat is the event category (Cat* constants).
	Cat string `json:"cat"`
	// Type refines the category: the message type for transport events,
	// "join"/"leave" for churn, "move" for mobility.
	Type string `json:"type"`
	// From and To are host IDs (-1 when not applicable).
	From int `json:"from"`
	To   int `json:"to"`
	// Bytes is the payload size for transport events.
	Bytes uint64 `json:"bytes,omitempty"`
	// Latency is the one-way latency for transport events, in simulated
	// milliseconds.
	Latency sim.Duration `json:"latency_ms,omitempty"`
	// Dropped marks a message discarded by fault injection.
	Dropped bool `json:"dropped,omitempty"`
	// Detail carries free-form context (e.g. "as3→as7" for a handover).
	Detail string `json:"detail,omitempty"`
}

// transportEvent converts a transport trace event into a telemetry event.
func transportEvent(e transport.Event) Event {
	return Event{
		At: e.At, Cat: CatTransport, Type: e.Type,
		From: hostID(e.From), To: hostID(e.To),
		Bytes: e.Bytes, Latency: e.Latency, Dropped: e.Dropped,
	}
}

func hostID(h *underlay.Host) int {
	if h == nil {
		return -1
	}
	return int(h.ID)
}

// Manifest identifies a run: what was executed, under which seed and
// parameters. It is written as the first line of a run file, before any
// event, so readers can identify a run without scanning it. Manifests
// contain no wall-clock state — two runs of the same experiment and seed
// produce byte-identical run files.
type Manifest struct {
	// Name labels the run (defaults to the experiment id in unapctl).
	Name string `json:"name"`
	// Experiment is the experiment id executed (empty for ad-hoc runs).
	Experiment string `json:"experiment,omitempty"`
	// Seed and Scale mirror experiments.RunConfig.
	Seed  int64   `json:"seed"`
	Scale float64 `json:"scale"`
	// Params records any further run parameters worth replaying.
	Params map[string]string `json:"params,omitempty"`
}

// Summary closes a run: end-of-run statistics plus the full metrics
// snapshot, written as the last line of a run file.
type Summary struct {
	// FinishedAt is the latest simulated time across observed kernels.
	FinishedAt sim.Time `json:"finished_at"`
	// Events counts events recorded.
	Events uint64 `json:"events"`
	// Samples counts sampling ticks recorded (0 when sampling was off,
	// and then omitted so unsampled run files are unchanged).
	Samples uint64 `json:"samples,omitempty"`
	// Metrics is the end-of-run snapshot of everything observed.
	Metrics MetricsSnapshot `json:"metrics"`
}
