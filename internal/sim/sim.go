// Package sim provides a deterministic discrete-event simulation kernel.
//
// All unap2p experiments run on this kernel: a single goroutine drains a
// time-ordered event heap, so a run is reproducible bit-for-bit given the
// same seed. Parallelism in unap2p happens *across* simulator instances
// (parameter sweeps), never inside one.
package sim

import (
	"fmt"
	"math"
)

// Time is simulated time in milliseconds since the start of the run.
type Time float64

// Duration is a span of simulated time in milliseconds.
type Duration = Time

// Common durations, in milliseconds.
const (
	Millisecond Duration = 1
	Second      Duration = 1000
)

// Forever is a time later than any event a simulation will schedule.
const Forever Time = Time(math.MaxFloat64)

func (t Time) String() string { return fmt.Sprintf("%.3fms", float64(t)) }

// Event is a pending callback in the kernel's queue. Events are pooled:
// once fired or cancelled, the struct returns to the kernel's free list
// and is reused by the next schedule, so the steady-state hot loop
// allocates nothing. gen counts reuses; an outstanding Timer remembers
// the generation it was issued for and goes inert when they diverge.
type event struct {
	at  Time
	seq uint64 // tie-break so equal-time events fire in schedule order
	fn  func()
	idx int
	gen uint32
	// daemon marks housekeeping events (telemetry probe ticks) that must
	// not keep an unbounded Run alive on their own: when only daemon
	// events remain and the horizon is Forever, Run returns instead of
	// ticking forever. See Kernel.AtDaemon.
	daemon bool
	// next links the kernel's free list while the event is recycled.
	next *event
}

// eventQueue is the kernel's pending-event queue: a 4-ary min-heap on
// (at, seq) with every event's slot mirrored in its idx, so a Timer can
// remove from the middle in O(log n). seq is unique per kernel, which
// makes the order total — any correct heap pops the same sequence.
//
// A slot is one pointer wide on purpose. Inline {at, seq, *event} or
// {at, *event} slots were measured no faster at the depths the
// benchmark runs (34 k–103 k) and cost paper-unstructured +1.9–4.1 %
// alloc_mb and +6–10 % peak RSS in append-growth garbage (DESIGN.md,
// "Megascale plane").
type eventQueue []*event

// before reports whether a fires ahead of b.
func before(a, b *event) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

func (q *eventQueue) push(e *event) {
	*q = append(*q, e)
	q.up(len(*q)-1, e)
}

// remove takes the event in slot i out of the queue; slot 0 is the
// earliest.
func (q *eventQueue) remove(i int) {
	h := *q
	n := len(h) - 1
	e, last := h[i], h[n]
	h[n] = nil
	*q = h[:n]
	if i < n {
		// The former last event fills the hole and may belong on either
		// side of it.
		if i > 0 && before(last, h[(i-1)/4]) {
			q.up(i, last)
		} else {
			q.down(i, last)
		}
	}
	e.idx = -1
}

// up places e at slot i or above: parents later than e move down into
// the hole until e fits.
func (q eventQueue) up(i int, e *event) {
	for i > 0 {
		p := (i - 1) / 4
		pe := q[p]
		if !before(e, pe) {
			break
		}
		q[i] = pe
		pe.idx = i
		i = p
	}
	q[i] = e
	e.idx = i
}

// down places e at slot i or below: the earliest of up to four children
// moves up into the hole while it fires ahead of e.
func (q eventQueue) down(i int, e *event) {
	n := len(q)
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		m, me := c, q[c]
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if before(q[j], me) {
				m, me = j, q[j]
			}
		}
		if !before(me, e) {
			break
		}
		q[i] = me
		me.idx = i
		i = m
	}
	q[i] = e
	e.idx = i
}

// Kernel is a discrete-event scheduler. The zero value is ready to use.
type Kernel struct {
	now     Time
	seq     uint64
	queue   eventQueue
	stopped bool
	// processed counts events executed, for diagnostics.
	processed uint64
	// maxQueue tracks the high-water mark of the pending-event queue, a
	// cheap load statistic telemetry exports per run.
	maxQueue int
	// daemons counts pending daemon events, so Run can tell when the
	// queue holds nothing but housekeeping.
	daemons int
	// free heads the recycled-event list; its length is bounded by the
	// queue's high-water mark.
	free *event
}

// NewKernel returns an empty kernel at time 0.
func NewKernel() *Kernel { return &Kernel{} }

// Now returns the current simulated time.
func (k *Kernel) Now() Time { return k.now }

// Processed reports how many events have executed so far.
func (k *Kernel) Processed() uint64 { return k.processed }

// Pending reports how many events are queued.
func (k *Kernel) Pending() int { return len(k.queue) }

// NextAt reports the time of the earliest pending event, or false when
// the queue is empty. It lets a wall-clock pacer (internal/nettransport)
// sleep exactly until the next deadline instead of polling the kernel.
func (k *Kernel) NextAt() (Time, bool) {
	if len(k.queue) == 0 {
		return 0, false
	}
	return k.queue[0].at, true
}

// MaxQueue reports the high-water mark of the pending-event queue — how
// deep the schedule ever got.
func (k *Kernel) MaxQueue() int { return k.maxQueue }

// Stats is a frozen snapshot of the kernel's run statistics.
type Stats struct {
	Now       Time
	Processed uint64
	Pending   int
	MaxQueue  int
}

// Stats snapshots the kernel's diagnostics counters.
func (k *Kernel) Stats() Stats {
	return Stats{Now: k.now, Processed: k.processed, Pending: len(k.queue), MaxQueue: k.maxQueue}
}

// Timer identifies a scheduled event so it can be cancelled.
type Timer struct {
	k   *Kernel
	e   *event
	gen uint32
}

// Cancel removes the event if it has not fired yet. It reports whether the
// event was still pending. Cancelling twice, or after the event fired, is
// a harmless no-op — even when the pooled event struct has since been
// reused for a different schedule (the generation check below), so a
// stale Timer can never cancel someone else's event or underflow the
// daemons counter.
func (t Timer) Cancel() bool {
	if t.e == nil || t.e.gen != t.gen || t.e.idx < 0 {
		return false
	}
	t.k.queue.remove(t.e.idx)
	if t.e.daemon {
		t.k.daemons--
	}
	t.k.recycle(t.e)
	return true
}

// alloc takes an event from the free list, or allocates one.
func (k *Kernel) alloc() *event {
	if e := k.free; e != nil {
		k.free = e.next
		e.next = nil
		return e
	}
	return &event{}
}

// recycle retires an event to the free list, bumping its generation so
// outstanding Timers for it go inert.
func (k *Kernel) recycle(e *event) {
	e.gen++
	e.fn = nil
	e.daemon = false
	e.next = k.free
	k.free = e
}

// Schedule runs fn after delay (clamped to >= 0) of simulated time.
func (k *Kernel) Schedule(delay Duration, fn func()) Timer {
	if delay < 0 {
		delay = 0
	}
	return k.At(k.now+delay, fn)
}

// At runs fn at absolute time t. Times in the past fire "now".
func (k *Kernel) At(t Time, fn func()) Timer {
	return k.at(t, fn, false)
}

// AtDaemon schedules fn at absolute time t as a daemon event: it fires in
// time order like any other event, but pending daemons alone do not keep
// Run(Forever) alive — when only daemons remain in an unbounded run, the
// kernel stops as if the queue were empty. Within a bounded Run(until),
// daemons due before the horizon still fire, so periodic samplers see the
// whole window. Daemon callbacks must be pure observers: scheduling
// non-daemon work from one would change what "drained" means.
func (k *Kernel) AtDaemon(t Time, fn func()) Timer {
	return k.at(t, fn, true)
}

func (k *Kernel) at(t Time, fn func(), daemon bool) Timer {
	if fn == nil {
		panic("sim: nil event callback")
	}
	if t < k.now {
		t = k.now
	}
	e := k.alloc()
	e.at, e.seq, e.fn, e.daemon = t, k.seq, fn, daemon
	k.seq++
	k.queue.push(e)
	if daemon {
		k.daemons++
	}
	if len(k.queue) > k.maxQueue {
		k.maxQueue = len(k.queue)
	}
	return Timer{k: k, e: e, gen: e.gen}
}

// EveryDaemon schedules fn at now+period and every period thereafter,
// until the returned cancel function is called, with daemon scheduling
// (see AtDaemon): the recurring tick never keeps an unbounded Run alive
// by itself. This is how a sampling telemetry Recorder samples a kernel
// at a fixed sim-time interval without turning Drain into an infinite
// loop.
func (k *Kernel) EveryDaemon(period Duration, fn func()) (cancel func()) {
	if period <= 0 {
		panic("sim: non-positive period")
	}
	stopped := false
	var tick func()
	tick = func() {
		if stopped {
			return
		}
		fn()
		if !stopped {
			k.AtDaemon(k.now+period, tick)
		}
	}
	k.AtDaemon(k.now+period, tick)
	return func() { stopped = true }
}

// Stop makes Run return after the current event completes.
func (k *Kernel) Stop() { k.stopped = true }

// Run executes events in time order until the queue empties (or holds
// only daemon events in an unbounded run, see AtDaemon), Stop is called,
// or simulated time would exceed until.
// It returns the simulated time at which the run ended.
//
// Horizon rule: unless Stop left events pending, a finite horizon later
// than Now() becomes the clock, so repeated Run calls stay monotone. A
// horizon below Now() fires nothing and leaves the clock where it is.
func (k *Kernel) Run(until Time) Time {
	k.stopped = false
	k.runEpoch(until, true, until >= Forever)
	if k.now < until && until < Forever && (!k.stopped || len(k.queue) == 0) {
		k.now = until
	}
	return k.now
}

// runEpoch executes this kernel's events with at < end (at ≤ end when
// inclusive) until Stop is called, leaving now at the last executed
// event — the body of Run, and of one lock-step epoch per shard. When
// unbounded, a queue holding only daemon events stops early: only
// housekeeping is left and there is no horizon to fill.
func (k *Kernel) runEpoch(end Time, inclusive, unbounded bool) {
	for len(k.queue) > 0 && !k.stopped {
		if unbounded && k.daemons == len(k.queue) {
			return
		}
		next := k.queue[0]
		if next.at > end || (next.at == end && !inclusive) {
			return
		}
		k.queue.remove(0)
		if next.daemon {
			k.daemons--
		}
		k.now = next.at
		k.processed++
		// Recycle before running: the callback's own schedules may reuse
		// the struct immediately, and its Timer (if any) must already be
		// inert.
		fn := next.fn
		k.recycle(next)
		fn()
	}
}

// Drain runs until the queue is empty (daemon events excepted, see
// AtDaemon) with no time horizon.
func (k *Kernel) Drain() Time { return k.Run(Forever) }
