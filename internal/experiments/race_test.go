// Race acceptance test for shared-observer sweeps: RunSeeds runs its
// workers concurrently, and the documented supported configuration for
// observing a whole sweep is a single shared Recorder with sampling off
// (a sampling recorder samples one driving goroutine and is per-run
// only). Under -race this test is
// the proof the Recorder's locking actually covers the concurrent
// attach-and-record path; the count assertion proves no event is lost.
package experiments_test

import (
	"sync"
	"testing"

	"unap2p/internal/experiments"
	"unap2p/internal/telemetry"
	"unap2p/internal/transport"
)

// sweepObserver is a shared Recorder that additionally remembers every
// transport the sweep's workers attach, under its own lock.
type sweepObserver struct {
	*telemetry.Recorder
	mu         sync.Mutex
	transports []*transport.Transport
}

func (o *sweepObserver) ObserveTransport(t *transport.Transport) {
	o.mu.Lock()
	o.transports = append(o.transports, t)
	o.mu.Unlock()
	o.Recorder.ObserveTransport(t)
}

func TestConcurrentSweepSharedRecorder(t *testing.T) {
	obs := &sweepObserver{Recorder: telemetry.NewRecorder(telemetry.Config{})}
	const seeds = 4
	cfg := experiments.RunConfig{Scale: 0.5, Obs: obs}
	if _, err := experiments.RunSeeds("exp-pns-kademlia", cfg, 1, seeds); err != nil {
		t.Fatal(err)
	}

	obs.mu.Lock()
	trs := append([]*transport.Transport(nil), obs.transports...)
	obs.mu.Unlock()
	if want := 2 * seeds; len(trs) != want { // two variants per run
		t.Fatalf("observed %d transports, want %d", len(trs), want)
	}
	var sent uint64
	for _, tr := range trs {
		for _, v := range tr.Counters().Snapshot() {
			sent += v
		}
	}
	if got := obs.Recorded(); got != sent {
		t.Fatalf("recorder saw %d events but transports sent %d — events lost in the concurrent sweep", got, sent)
	}
	if sent == 0 {
		t.Fatal("sweep sent no messages; the assertion is vacuous")
	}
}
