package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// A run file is JSON Lines with one typed record per line:
//
//	{"t":"manifest","manifest":{…}}   exactly once, first line
//	{"t":"event","event":{…}}         zero or more, in record order
//	{"t":"sample","sample":{…}}       zero or more, sampling ticks in order
//	{"t":"summary","summary":{…}}     exactly once, last line
//
// The format is append-only and stream-writable (the Recorder writes
// each record through as it happens), deterministic (no wall-clock
// state), and self-describing (readers skip record types they don't
// know). Sample records interleave with events in capture order, so a
// sample sits after every event it could have observed.
type lineRecord struct {
	T        string    `json:"t"`
	Manifest *Manifest `json:"manifest,omitempty"`
	Event    *Event    `json:"event,omitempty"`
	Sample   *Sample   `json:"sample,omitempty"`
	Summary  *Summary  `json:"summary,omitempty"`
}

// RunWriter streams a run file. Methods are not concurrency-safe; the
// Recorder serializes access through its own lock. The first write error
// sticks: later writes become no-ops returning it, so a full disk midway
// through a million-event run fails fast instead of grinding through the
// rest, and Recorder.Close surfaces the original cause.
type RunWriter struct {
	bw  *bufio.Writer
	enc *json.Encoder
	err error
	// rec and ev are reused by every write, so the per-event hot path
	// neither boxes a fresh record into Encode's interface nor lets its
	// Event escape to the heap.
	rec lineRecord
	ev  Event
}

// NewRunWriter returns a writer streaming to w.
func NewRunWriter(w io.Writer) *RunWriter {
	bw := bufio.NewWriter(w)
	return &RunWriter{bw: bw, enc: json.NewEncoder(bw)}
}

func (w *RunWriter) encode(rec lineRecord) error {
	if w.err != nil {
		return w.err
	}
	w.rec = rec
	if err := w.enc.Encode(&w.rec); err != nil {
		w.err = err
	}
	return w.err
}

// WriteManifest writes the opening manifest record.
func (w *RunWriter) WriteManifest(m Manifest) error {
	return w.encode(lineRecord{T: "manifest", Manifest: &m})
}

// WriteEvent writes one event record.
func (w *RunWriter) WriteEvent(e Event) error {
	w.ev = e
	return w.encode(lineRecord{T: "event", Event: &w.ev})
}

// WriteSample writes one sample record.
func (w *RunWriter) WriteSample(s Sample) error {
	return w.encode(lineRecord{T: "sample", Sample: &s})
}

// WriteSummary writes the closing summary record.
func (w *RunWriter) WriteSummary(s Summary) error {
	return w.encode(lineRecord{T: "summary", Summary: &s})
}

// Flush flushes buffered output to the underlying writer. Note that
// bufio defers underlying write errors until the buffer spills, so an
// error here may be the first sign the sink is broken.
func (w *RunWriter) Flush() error {
	if w.err != nil {
		return w.err
	}
	if err := w.bw.Flush(); err != nil {
		w.err = err
	}
	return w.err
}

// Err returns the sticky first write error, if any.
func (w *RunWriter) Err() error { return w.err }

// Run is a fully parsed run file.
type Run struct {
	Manifest Manifest
	Events   []Event
	// Samples holds the sampling ticks in capture order (empty unless
	// the recording sampled, Config.Interval > 0).
	Samples []Sample
	Summary Summary
	// HasSummary reports whether a summary record was present (a run cut
	// short before Recorder.Close leaves none).
	HasSummary bool
}

// ReadRun parses a run file from r. Unknown record types are skipped so
// the format can grow.
func ReadRun(r io.Reader) (*Run, error) {
	run := &Run{}
	sawManifest := false
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var rec lineRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			return nil, fmt.Errorf("telemetry: run file line %d: %w", lineNo, err)
		}
		switch rec.T {
		case "manifest":
			if rec.Manifest != nil {
				run.Manifest = *rec.Manifest
				sawManifest = true
			}
		case "event":
			if rec.Event != nil {
				run.Events = append(run.Events, *rec.Event)
			}
		case "sample":
			if rec.Sample != nil {
				run.Samples = append(run.Samples, *rec.Sample)
			}
		case "summary":
			if rec.Summary != nil {
				run.Summary = *rec.Summary
				run.HasSummary = true
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("telemetry: run file: %w", err)
	}
	if !sawManifest {
		return nil, fmt.Errorf("telemetry: run file has no manifest record")
	}
	return run, nil
}

// ReadRunFile parses the run file at path.
func ReadRunFile(path string) (*Run, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	run, err := ReadRun(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return run, nil
}

// Delta is one metric whose value differs between two runs.
type Delta struct {
	// Metric is the flattened metric name (see MetricsSnapshot.Flatten).
	Metric string `json:"metric"`
	// A and B are the metric's values in each run (0 when missing —
	// see MissingIn).
	A float64 `json:"a"`
	B float64 `json:"b"`
	// Rel is |A-B| / max(|A|,|B|), the relative delta compared against
	// the threshold — except when either side is exactly 0, where it is
	// the absolute delta |A-B| (see relDelta): a zero baseline has no
	// scale, and reporting any epsilon as 100% drift buries real
	// regressions in noise.
	Rel float64 `json:"rel"`
	// MissingIn is "a" or "b" when the metric exists in only one run.
	MissingIn string `json:"missing_in,omitempty"`
}

func relDelta(a, b float64) float64 {
	if a == b || (math.IsNaN(a) && math.IsNaN(b)) {
		return 0 // 0→0 (or NaN→NaN) is no drift, not 0/0
	}
	if math.IsNaN(a) || math.IsNaN(b) {
		return 1 // number on one side, NaN on the other: fully drifted
	}
	if a == 0 || b == 0 {
		// Zero baseline (or comparison): there is no scale to divide
		// by, so report the absolute change. 0→0.01 is drift 0.01, not
		// an automatic 100%.
		return math.Abs(a - b)
	}
	return math.Abs(a-b) / math.Max(math.Abs(a), math.Abs(b))
}

// DiffRuns compares two runs' metric snapshots and returns every metric
// whose relative delta exceeds threshold (plus metrics present in only
// one run), sorted by descending relative delta then name. Two runs of
// the same experiment and seed diff empty at any threshold ≥ 0; two
// seeds of the same experiment surface exactly the metrics that moved —
// the seed-to-seed regression detector.
func DiffRuns(a, b *Run, threshold float64) []Delta {
	fa := a.Summary.Metrics.Flatten()
	fb := b.Summary.Metrics.Flatten()
	var out []Delta
	for name, va := range fa {
		vb, ok := fb[name]
		if !ok {
			out = append(out, Delta{Metric: name, A: va, Rel: 1, MissingIn: "b"})
			continue
		}
		if rel := relDelta(va, vb); rel > threshold {
			out = append(out, Delta{Metric: name, A: va, B: vb, Rel: rel})
		}
	}
	for name, vb := range fb {
		if _, ok := fa[name]; !ok {
			out = append(out, Delta{Metric: name, B: vb, Rel: 1, MissingIn: "a"})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Rel != out[j].Rel {
			return out[i].Rel > out[j].Rel
		}
		return out[i].Metric < out[j].Metric
	})
	return out
}
