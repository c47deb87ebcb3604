package nettransport

import (
	"sync"
	"time"

	"unap2p/internal/sim"
)

// Pacer drives a sim.Kernel against the wall clock: simulated
// milliseconds map 1:1 onto real milliseconds since Start. Components
// written for the deterministic kernel — above all the resilience
// failure detector, which schedules its ping ticks with AtDaemon —
// run unmodified on a live node: their sim-time schedules simply fire
// at the corresponding wall time.
//
// The kernel itself is single-goroutine by contract, so the pacer owns
// it: all kernel access after Start must go through Do, which funnels
// the call onto the pacer goroutine. The pacer sleeps exactly until
// the next pending event (Kernel.NextAt) rather than polling, waking
// early when Do injects work.
type Pacer struct {
	K *sim.Kernel

	start time.Time
	calls chan func()
	done  chan struct{}
	wg    sync.WaitGroup
	once  sync.Once
}

// NewPacer wraps k. The kernel must not be driven by anyone else after
// Start.
func NewPacer(k *sim.Kernel) *Pacer {
	return &Pacer{
		K:     k,
		calls: make(chan func()),
		done:  make(chan struct{}),
	}
}

// Now reports the current wall time as kernel time (milliseconds since
// Start). Before Start it is zero.
func (p *Pacer) Now() sim.Time {
	if p.start.IsZero() {
		return 0
	}
	return sim.Time(float64(time.Since(p.start)) / float64(time.Millisecond))
}

// Start launches the pacing goroutine. Time zero is now.
func (p *Pacer) Start() {
	p.start = time.Now()
	p.wg.Add(1)
	go p.loop()
}

// idleSleep bounds how long the pacer sleeps when the kernel queue is
// empty; a Do call wakes it immediately regardless.
const idleSleep = 100 * time.Millisecond

func (p *Pacer) loop() {
	defer p.wg.Done()
	// One timer for the pacer's life: a wake-up allocates nothing.
	timer := time.NewTimer(time.Hour)
	timer.Stop()
	defer timer.Stop()
	for {
		// Advance the kernel to the current wall time. Run with a finite
		// horizon fires daemon events too, so detector ticks keep coming.
		p.K.Run(p.Now())

		sleep := idleSleep
		if next, ok := p.K.NextAt(); ok {
			d := time.Duration(float64(next-p.Now()) * float64(time.Millisecond))
			if d < 0 {
				d = 0
			}
			if d < sleep {
				sleep = d
			}
		}
		timer.Reset(sleep)
		select {
		case fn := <-p.calls:
			if !timer.Stop() {
				select { // a tick that fired before Stop: drop it
				case <-timer.C:
				default:
				}
			}
			fn()
		case <-timer.C:
		case <-p.done:
			return
		}
	}
}

// Do runs fn on the pacer goroutine and waits for it to return — the
// only safe way to touch the kernel (or any state its events mutate)
// while the pacer runs. After Stop, Do runs fn inline on the caller:
// the pacer goroutine is gone, so there is nothing to race with.
func (p *Pacer) Do(fn func()) {
	ran := make(chan struct{})
	select {
	case p.calls <- func() { fn(); close(ran) }:
		<-ran
	case <-p.done:
		fn()
	}
}

// Stop halts the pacing goroutine and waits for it to exit. Idempotent.
func (p *Pacer) Stop() {
	p.once.Do(func() { close(p.done) })
	p.wg.Wait()
}
