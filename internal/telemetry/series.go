package telemetry

import (
	"math"
	"sort"
	"strings"
	"sync"

	"unap2p/internal/sim"
)

// Sample is one sampling tick of a Recorder: everything it can
// snapshot, flattened to scalars, plus the registered health sources, at
// one point in simulated time. Samples serialize into run files as the "sample"
// JSONL record type, between events and the summary.
type Sample struct {
	// Seq numbers samples from 0 in capture order — the x-axis for
	// experiments that drive overlays in rounds rather than on a kernel
	// (all their samples share At 0).
	Seq uint64 `json:"seq"`
	// At is the latest simulated time across the recorder's observed
	// kernels when the sample was taken.
	At sim.Time `json:"at"`
	// Values maps flattened metric names (see MetricsSnapshot.Flatten)
	// and "health:<source>:<key>" gauges to their sampled values.
	// Non-finite values are dropped at capture time: JSON cannot carry
	// them and a NaN in a series poisons every aggregate downstream.
	Values map[string]float64 `json:"values"`
}

// Series is a bounded in-memory sample store. When full, the oldest
// sample is dropped and counted, so a long run keeps a sliding window
// instead of growing without bound.
type Series struct {
	mu      sync.Mutex
	cap     int
	samples []Sample
	dropped uint64
}

// NewSeries returns a series retaining at most capacity samples
// (default 4096 when capacity <= 0).
func NewSeries(capacity int) *Series {
	if capacity <= 0 {
		capacity = 4096
	}
	return &Series{cap: capacity}
}

func (s *Series) add(smp Sample) {
	s.mu.Lock()
	if len(s.samples) == s.cap {
		copy(s.samples, s.samples[1:])
		s.samples = s.samples[:len(s.samples)-1]
		s.dropped++
	}
	s.samples = append(s.samples, smp)
	s.mu.Unlock()
}

// Samples returns a copy of the retained samples, oldest first.
func (s *Series) Samples() []Sample {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Sample(nil), s.samples...)
}

// Len reports how many samples are retained.
func (s *Series) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.samples)
}

// Dropped reports how many samples retention has discarded.
func (s *Series) Dropped() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropped
}

// Last returns the most recent sample, if any.
func (s *Series) Last() (Sample, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.samples) == 0 {
		return Sample{}, false
	}
	return s.samples[len(s.samples)-1], true
}

// Values extracts one metric's series aligned with Samples(); ticks
// where the metric is absent yield NaN so the caller can tell "missing"
// from zero.
func (s *Series) Values(metric string) []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return SampleValues(s.samples, metric)
}

// SampleValues extracts metric across samples, NaN where absent.
func SampleValues(samples []Sample, metric string) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		if v, ok := s.Values[metric]; ok {
			out[i] = v
		} else {
			out[i] = math.NaN()
		}
	}
	return out
}

// SampleMetrics returns the sorted union of metric names across samples.
func SampleMetrics(samples []Sample) []string {
	seen := make(map[string]bool)
	var out []string
	for _, s := range samples {
		for k := range s.Values {
			if !seen[k] {
				seen[k] = true
				out = append(out, k)
			}
		}
	}
	sort.Strings(out)
	return out
}

var sparkRunes = []rune("▁▂▃▄▅▆▇█")

// Sparkline renders vals as a unicode block sparkline at most width
// cells wide (longer series are bucket-averaged down). Values are
// min-max normalized over the finite points; NaN cells render as
// spaces; a flat series renders as a line of low blocks. width <= 0
// means one cell per value.
func Sparkline(vals []float64, width int) string {
	if len(vals) == 0 {
		return ""
	}
	if width > 0 && len(vals) > width {
		vals = downsample(vals, width)
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range vals {
		if math.IsNaN(v) {
			continue
		}
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	var b strings.Builder
	for _, v := range vals {
		switch {
		case math.IsNaN(v):
			b.WriteRune(' ')
		case hi == lo:
			b.WriteRune(sparkRunes[0])
		default:
			idx := int((v - lo) / (hi - lo) * float64(len(sparkRunes)-1))
			if idx < 0 {
				idx = 0
			}
			if idx >= len(sparkRunes) {
				idx = len(sparkRunes) - 1
			}
			b.WriteRune(sparkRunes[idx])
		}
	}
	return b.String()
}

// downsample bucket-averages vals to width points, skipping NaNs; a
// bucket of only NaNs stays NaN.
func downsample(vals []float64, width int) []float64 {
	out := make([]float64, width)
	for i := range out {
		lo := i * len(vals) / width
		hi := (i + 1) * len(vals) / width
		if hi <= lo {
			hi = lo + 1
		}
		sum, n := 0.0, 0
		for _, v := range vals[lo:hi] {
			if !math.IsNaN(v) {
				sum += v
				n++
			}
		}
		if n == 0 {
			out[i] = math.NaN()
		} else {
			out[i] = sum / float64(n)
		}
	}
	return out
}
