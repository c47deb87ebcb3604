package metrics

import (
	"math"
	"sync"
	"testing"
)

// The accumulators shared with the real-socket transport's receive loop and
// the live /metrics scraper must tolerate concurrent writers and readers.
// These tests hammer each type from many goroutines while a reader
// snapshots it, and then check the totals are exact: under -race they
// pin the memory model, without it they pin that no increment is lost.

const (
	raceWriters   = 8
	racePerWriter = 10000
)

func TestCounterSetConcurrent(t *testing.T) {
	s := NewCounterSet()
	names := []string{"a", "b", "c", "d", "e"}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	go func() { // concurrent scraper
		for {
			select {
			case <-stop:
				return
			default:
				s.Snapshot()
			}
		}
	}()
	for w := 0; w < raceWriters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < racePerWriter; i++ {
				s.Get(names[(w+i)%len(names)]).Inc()
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	var total uint64
	for _, v := range s.Snapshot() {
		total += v
	}
	if want := uint64(raceWriters * racePerWriter); total != want {
		t.Fatalf("lost increments: total %d want %d", total, want)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := NewLatencyHistogram()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
				h.Snapshot()
				h.Quantile(0.95)
				h.Mean()
			}
		}
	}()
	for w := 0; w < raceWriters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < racePerWriter; i++ {
				h.Observe(float64(1 + (w*racePerWriter+i)%1000))
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	if want := uint64(raceWriters * racePerWriter); h.N() != want {
		t.Fatalf("lost observations: n %d want %d", h.N(), want)
	}
	var fromBuckets uint64
	for _, c := range h.Snapshot().Counts {
		fromBuckets += c
	}
	if fromBuckets != h.N() {
		t.Fatalf("bucket sum %d != n %d", fromBuckets, h.N())
	}
	// Every writer observes the same value multiset, so the sum is exact
	// up to float addition order; compare with a generous tolerance.
	var wantSum float64
	for i := 0; i < raceWriters*racePerWriter; i++ {
		wantSum += float64(1 + i%1000)
	}
	if math.Abs(h.Sum()-wantSum) > 1e-6*wantSum {
		t.Fatalf("sum drifted: %g want %g", h.Sum(), wantSum)
	}
	if h.Min() != 1 || h.Max() != 1000 {
		t.Fatalf("min/max = %g/%g, want 1/1000", h.Min(), h.Max())
	}
}
