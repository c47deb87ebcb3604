package metrics

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"
)

// Edge-case coverage for the export surface the telemetry layer persists
// into run files: quantiles on degenerate histograms, and the snapshot
// round trip that run-file diffing depends on.

func TestHistogramEmptyQuantiles(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4})
	for _, q := range []float64{0, 0.5, 0.95, 1} {
		if got := h.Quantile(q); got != 0 {
			t.Fatalf("empty Quantile(%v) = %v, want 0", q, got)
		}
	}
	if h.Mean() != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Fatalf("empty summary stats not zero: mean=%v min=%v max=%v",
			h.Mean(), h.Min(), h.Max())
	}
	s := h.Snapshot()
	if s.N != 0 || s.Min != 0 || s.Max != 0 {
		t.Fatalf("empty snapshot carries non-zero stats: %+v", s)
	}
	if got := s.Quantile(0.5); got != 0 {
		t.Fatalf("empty snapshot Quantile(0.5) = %v, want 0", got)
	}
}

func TestHistogramSingleSampleQuantiles(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4})
	h.Observe(3)
	// With one sample, every quantile must collapse to it — no
	// interpolation toward a bucket bound the sample never reached.
	for _, q := range []float64{0, 0.25, 0.5, 0.95, 1} {
		if got := h.Quantile(q); got != 3 {
			t.Fatalf("single-sample Quantile(%v) = %v, want 3", q, got)
		}
	}
	if h.Min() != 3 || h.Max() != 3 || h.Mean() != 3 {
		t.Fatalf("single-sample stats: min=%v max=%v mean=%v, want all 3",
			h.Min(), h.Max(), h.Mean())
	}
}

func TestHistogramOverflowSample(t *testing.T) {
	h := NewHistogram([]float64{1, 2})
	h.Observe(100) // beyond the last bound → overflow bucket
	counts := h.Snapshot().Counts
	if counts[len(counts)-1] != 1 {
		t.Fatalf("overflow sample not in overflow bucket: %v", counts)
	}
	if got := h.Quantile(0.5); got != 100 {
		t.Fatalf("overflow-only Quantile(0.5) = %v, want 100 (clamped to max)", got)
	}
}

func TestHistogramSnapshotRoundTrip(t *testing.T) {
	h := NewLatencyHistogram()
	for _, v := range []float64{0.5, 1, 3, 3, 7, 42, 9000, 100000} {
		h.Observe(v)
	}
	s := h.Snapshot()
	restored := HistogramFromSnapshot(s)
	if restored.N() != h.N() || restored.Sum() != h.Sum() ||
		restored.Min() != h.Min() || restored.Max() != h.Max() {
		t.Fatalf("round trip lost summary stats: got n=%d sum=%v min=%v max=%v",
			restored.N(), restored.Sum(), restored.Min(), restored.Max())
	}
	if !reflect.DeepEqual(restored.Snapshot().Counts, h.Snapshot().Counts) {
		t.Fatalf("round trip lost counts: %v vs %v", restored.Snapshot().Counts, h.Snapshot().Counts)
	}
	for _, q := range []float64{0, 0.1, 0.5, 0.9, 0.99, 1} {
		if got, want := restored.Quantile(q), h.Quantile(q); got != want {
			t.Fatalf("round trip Quantile(%v) = %v, want %v", q, got, want)
		}
		if got, want := s.Quantile(q), h.Quantile(q); got != want {
			t.Fatalf("snapshot Quantile(%v) = %v, want %v", q, got, want)
		}
	}
	// Two snapshots of identical state are value-equal — the property
	// run-file diffing relies on.
	if !reflect.DeepEqual(s, restored.Snapshot()) {
		t.Fatal("snapshot of restored histogram differs from original snapshot")
	}
}

func TestHistogramSnapshotJSONRoundTrip(t *testing.T) {
	h := NewHistogram([]float64{1, 10, 100})
	for _, v := range []float64{0.25, 5, 5, 50, 500} {
		h.Observe(v)
	}
	data, err := json.Marshal(h.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var s HistogramSnapshot
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s, h.Snapshot()) {
		t.Fatalf("JSON round trip changed snapshot:\n got %+v\nwant %+v", s, h.Snapshot())
	}
	if got, want := s.Quantile(0.5), h.Quantile(0.5); got != want {
		t.Fatalf("JSON round trip Quantile(0.5) = %v, want %v", got, want)
	}
}

func TestHistogramQuantileMonotone(t *testing.T) {
	h := NewLatencyHistogram()
	for i := 0; i < 1000; i++ {
		h.Observe(float64(i%97) + 0.5)
	}
	prev := math.Inf(-1)
	for q := 0.0; q <= 1.0; q += 0.05 {
		cur := h.Quantile(q)
		if cur < prev {
			t.Fatalf("Quantile(%v) = %v < Quantile(%v) = %v; quantiles must be monotone",
				q, cur, q-0.05, prev)
		}
		prev = cur
	}
	if h.Quantile(0) != h.Min() || h.Quantile(1) != h.Max() {
		t.Fatal("quantile endpoints must clamp to min/max")
	}
}
