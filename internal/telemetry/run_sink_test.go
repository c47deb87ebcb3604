package telemetry

import (
	"errors"
	"math"
	"testing"
)

// failWriter rejects every write — a full disk, reduced to its essence.
type failWriter struct{ err error }

func (w *failWriter) Write(p []byte) (int, error) { return 0, w.err }

func TestRunWriterStickyError(t *testing.T) {
	boom := errors.New("disk full")
	w := NewRunWriter(&failWriter{err: boom})
	if err := w.WriteManifest(Manifest{Name: "x"}); err != nil {
		// bufio may absorb the first records; an early error is fine too.
		if !errors.Is(err, boom) {
			t.Fatalf("unexpected error %v", err)
		}
	}
	// Spill the 4KiB bufio buffer so the underlying failure must surface.
	for i := 0; i < 200; i++ {
		w.WriteEvent(Event{Cat: CatTransport, Type: "padding-padding-padding", Bytes: 1 << 20})
	}
	if err := w.Flush(); !errors.Is(err, boom) {
		t.Fatalf("Flush = %v, want the underlying write error", err)
	}
	if err := w.Err(); !errors.Is(err, boom) {
		t.Fatalf("Err = %v, want sticky error", err)
	}
	// Once broken, every later write short-circuits with the same cause.
	if err := w.WriteSummary(Summary{}); !errors.Is(err, boom) {
		t.Fatalf("post-failure WriteSummary = %v, want sticky error", err)
	}
}

func TestRecorderCloseSurfacesSinkError(t *testing.T) {
	boom := errors.New("disk full")
	rec := NewRecorder(Config{
		Sink:     NewRunWriter(&failWriter{err: boom}),
		Manifest: Manifest{Name: "doomed"},
	})
	for i := 0; i < 400; i++ {
		rec.Record(Event{Cat: CatTransport, Type: "padding-padding-padding", Bytes: 1 << 20})
	}
	if err := rec.Close(); !errors.Is(err, boom) {
		t.Fatalf("Close = %v, want the first sink write error", err)
	}
	// Idempotent: a second Close reports the same failure.
	if err := rec.Close(); !errors.Is(err, boom) {
		t.Fatalf("second Close = %v, want the same error", err)
	}
}

// TestRelDeltaZeroBaseline pins the diff semantics at a zero baseline:
// 0→0 is no drift, 0→x drifts by the absolute delta (not an automatic
// 100%), and only NaN-vs-number is treated as fully drifted. Regression
// test for `unapctl diff` flagging every epsilon above a zero baseline.
func TestRelDeltaZeroBaseline(t *testing.T) {
	cases := []struct {
		a, b, want float64
	}{
		{0, 0, 0},
		{0, 0.01, 0.01},
		{0.01, 0, 0.01},
		{0, 5, 5},
		{10, 10, 0},
		{10, 12, 2.0 / 12},
		{-4, 4, 2}, // sign flip: |a-b| / max magnitude
		{math.NaN(), math.NaN(), 0},
		{math.NaN(), 1, 1},
		{1, math.NaN(), 1},
	}
	for _, tc := range cases {
		got := relDelta(tc.a, tc.b)
		if math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("relDelta(%v, %v) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
	}
	// The threshold contract: a tiny absolute change above zero stays
	// below any sane threshold instead of always exceeding it.
	if relDelta(0, 0.001) > 0.02 {
		t.Error("epsilon above a zero baseline exceeds a 2% diff threshold")
	}
}
