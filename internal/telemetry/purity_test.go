// Purity acceptance test: telemetry is a pure observer. Running an
// experiment with a Recorder attached must produce bit-identical results
// to running it bare — same tables, same latencies, same counters — for
// experiments exercising every observed component kind (transport +
// kernel, churn, mobility).
package telemetry_test

import (
	"bytes"
	"reflect"
	"testing"

	"unap2p/internal/experiments"
	"unap2p/internal/telemetry"
)

func runBothWays(t *testing.T, id string, scale float64) (bare, observed experiments.Result, rec *telemetry.Recorder) {
	t.Helper()
	cfg := experiments.RunConfig{Seed: 1, Scale: scale}
	bare, err := experiments.Run(id, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	rec = telemetry.NewRecorder(telemetry.Config{
		Sink:     telemetry.NewRunWriter(&buf),
		Manifest: telemetry.Manifest{Name: id, Experiment: id, Seed: 1, Scale: scale},
	})
	cfg.Obs = rec
	observed, err = experiments.Run(id, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	return bare, observed, rec
}

func TestRecorderIsPureObserver(t *testing.T) {
	cases := []struct {
		id    string
		scale float64
	}{
		{"exp-intra-as", 0.5},   // transport + kernel (Gnutella flood + file stage)
		{"exp-superpeer", 0.5},  // churn driver under a structured overlay
		{"exp-mobility", 0.5},   // mobility handovers
		{"exp-pns-kademlia", 1}, // kernel-less RPC overlay
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.id, func(t *testing.T) {
			bare, observed, rec := runBothWays(t, tc.id, tc.scale)
			if !reflect.DeepEqual(bare, observed) {
				t.Fatalf("attaching a recorder changed the result of %s:\nbare:\n%s\nobserved:\n%s",
					tc.id, bare.Render(), observed.Render())
			}
			if rec.Recorded() == 0 && len(rec.Summary().Metrics.Flatten()) == 0 {
				t.Fatalf("recorder observed nothing during %s; wiring is missing", tc.id)
			}
		})
	}
}

// TestRecordedRunsAreReproducible pins the stronger property the CLI
// relies on: two recordings of the same experiment and seed produce
// byte-identical run files, so `unapctl diff` on them is empty.
func TestRecordedRunsAreReproducible(t *testing.T) {
	record := func() []byte {
		var buf bytes.Buffer
		rec := telemetry.NewRecorder(telemetry.Config{
			Sink:     telemetry.NewRunWriter(&buf),
			Manifest: telemetry.Manifest{Name: "repro", Experiment: "exp-pns-kademlia", Seed: 3, Scale: 1},
		})
		if _, err := experiments.Run("exp-pns-kademlia", experiments.RunConfig{Seed: 3, Scale: 1, Obs: rec}); err != nil {
			t.Fatal(err)
		}
		if err := rec.Close(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := record(), record()
	if !bytes.Equal(a, b) {
		t.Fatal("two identical-seed recordings produced different run files")
	}
	runA, err := telemetry.ReadRun(bytes.NewReader(a))
	if err != nil {
		t.Fatal(err)
	}
	runB, err := telemetry.ReadRun(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	if ds := telemetry.DiffRuns(runA, runB, 0); len(ds) != 0 {
		t.Fatalf("identical-seed runs diff: %+v", ds)
	}
}
