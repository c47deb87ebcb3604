// Sampling purity acceptance tests: a Recorder with sampling on is still
// a pure observer. Daemon sampling ticks interleaving with the
// experiment's own events and health callbacks reading live overlay
// state mid-run must leave fixed-seed results bit-identical, and two
// sampled recordings of the same seed and interval must produce
// byte-identical run files, sample records included.
package telemetry_test

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"unap2p/internal/experiments"
	"unap2p/internal/sim"
	"unap2p/internal/telemetry"
)

func runProbed(t *testing.T, id string, scale float64, interval sim.Duration) (experiments.Result, *telemetry.Recorder, []byte) {
	t.Helper()
	var buf bytes.Buffer
	rec := telemetry.NewRecorder(telemetry.Config{
		Sink:     telemetry.NewRunWriter(&buf),
		Manifest: telemetry.Manifest{Name: id, Experiment: id, Seed: 1, Scale: scale},
		Interval: interval,
	})
	res, err := experiments.Run(id, experiments.RunConfig{Seed: 1, Scale: scale, Obs: rec})
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	return res, rec, buf.Bytes()
}

func TestProbeIsPureObserver(t *testing.T) {
	cases := []struct {
		id    string
		scale float64
	}{
		{"exp-intra-as", 0.5},   // kernel-driven Gnutella: daemon ticks interleave
		{"exp-superpeer", 0.5},  // churn driver: live-population gauge
		{"exp-pns-kademlia", 1}, // kernel-less rounds: manual Sample calls
		{"exp-bns-swarm", 0.5},  // swarm OnRound hook
		{"abl-pns-metric", 0.5}, // Vivaldi convergence sampling
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.id, func(t *testing.T) {
			bare, err := experiments.Run(tc.id, experiments.RunConfig{Seed: 1, Scale: tc.scale})
			if err != nil {
				t.Fatal(err)
			}
			probed, probe, _ := runProbed(t, tc.id, tc.scale, 50)
			if !reflect.DeepEqual(bare, probed) {
				t.Fatalf("attaching a probe changed the result of %s:\nbare:\n%s\nprobed:\n%s",
					tc.id, bare.Render(), probed.Render())
			}
			if probe.Series().Len() == 0 {
				t.Fatalf("probe captured no samples during %s; sampling wiring is missing", tc.id)
			}
		})
	}
}

func TestProbedRunsAreByteIdentical(t *testing.T) {
	_, _, a := runProbed(t, "exp-pns-kademlia", 1, 50)
	_, _, b := runProbed(t, "exp-pns-kademlia", 1, 50)
	if !bytes.Equal(a, b) {
		t.Fatal("two identical-seed probed recordings produced different run files")
	}
	if !strings.Contains(string(a), `"t":"sample"`) {
		t.Fatal("probed run file carries no sample records")
	}
}

// TestProbeCapturesOverlayHealthCurves pins the acceptance examples: the
// convergence curves the probe plane exists to expose are actually in
// the samples — coordinate embedding error, DHT routing-table locality,
// swarm completion.
func TestProbeCapturesOverlayHealthCurves(t *testing.T) {
	cases := []struct {
		id, metric string
		scale      float64
		decreasing bool
	}{
		{"abl-pns-metric", "health:vivaldi:median_rel_error", 0.5, true},
		{"exp-pns-kademlia", "health:kademlia-pns:rt_intra_as_fraction", 1, false},
		{"exp-bns-swarm", "health:swarm-biased:completion_mean", 0.5, false},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.metric, func(t *testing.T) {
			_, probe, _ := runProbed(t, tc.id, tc.scale, 50)
			vals := probe.Series().Values(tc.metric)
			var finite []float64
			for _, v := range vals {
				if v == v {
					finite = append(finite, v)
				}
			}
			if len(finite) < 2 {
				t.Fatalf("%s has %d finite points, want a curve", tc.metric, len(finite))
			}
			first, last := finite[0], finite[len(finite)-1]
			if tc.decreasing && last >= first {
				t.Fatalf("%s did not converge: %v → %v", tc.metric, first, last)
			}
			if !tc.decreasing && last <= first {
				t.Fatalf("%s did not grow: %v → %v", tc.metric, first, last)
			}
		})
	}
}
