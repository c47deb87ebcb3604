package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

// The event queue is a hand-written 4-ary heap with in-place removal.
// This model test drives a Kernel and a reference side by side through
// random interleavings of Schedule/At/AtDaemon/Timer.Cancel/Run and
// requires the same fire order, Cancel results and counters, plus the
// heap's own invariant (every queued event's idx is its slot) after
// every operation. The reference keeps pending events in schedule order
// and stable-sorts them by time, which is (at, seq) order by definition.

type refEvent struct {
	id     int
	at     Time
	daemon bool
	child  Duration // delay of the event this one schedules when it fires; < 0 for none
}

type queueModel struct {
	now      Time
	pending  []refEvent // schedule order, i.e. ascending seq
	maxQueue int
	fired    []int
	issued   int
}

func (m *queueModel) at(t Time, daemon bool, child Duration) {
	if t < m.now {
		t = m.now
	}
	m.pending = append(m.pending, refEvent{id: m.issued, at: t, daemon: daemon, child: child})
	m.issued++
	if len(m.pending) > m.maxQueue {
		m.maxQueue = len(m.pending)
	}
}

func (m *queueModel) cancel(id int) bool {
	for i, e := range m.pending {
		if e.id == id {
			m.pending = append(m.pending[:i], m.pending[i+1:]...)
			return true
		}
	}
	return false
}

func (m *queueModel) daemons() int {
	n := 0
	for _, e := range m.pending {
		if e.daemon {
			n++
		}
	}
	return n
}

// next returns the earliest pending event: first of a stable sort by at.
func (m *queueModel) next() refEvent {
	order := append([]refEvent(nil), m.pending...)
	sort.SliceStable(order, func(i, j int) bool { return order[i].at < order[j].at })
	return order[0]
}

func (m *queueModel) run(until Time) {
	for len(m.pending) > 0 {
		if m.daemons() == len(m.pending) && until >= Forever {
			return
		}
		e := m.next()
		if e.at > until {
			m.now = until
			return
		}
		m.cancel(e.id)
		m.now = e.at
		m.fired = append(m.fired, e.id)
		if e.child >= 0 {
			m.at(m.now+e.child, false, -1)
		}
	}
	if m.now < until && until < Forever {
		m.now = until
	}
}

// queueHarness applies each operation to the kernel and the model. Event
// ids are issue order on both sides, so they agree as long as the fire
// orders do.
type queueHarness struct {
	k      *Kernel
	m      queueModel
	timers []Timer // by event id
	fired  []int
}

func (h *queueHarness) callback(id int, child Duration) func() {
	return func() {
		h.fired = append(h.fired, id)
		if child >= 0 {
			// Fired events are recycled before they run, so this schedule
			// reuses the very struct that is firing.
			h.timers = append(h.timers, h.k.Schedule(child, h.callback(len(h.timers), -1)))
		}
	}
}

func (h *queueHarness) at(t Time, daemon bool, child Duration) {
	fn := h.callback(len(h.timers), child)
	if daemon {
		h.timers = append(h.timers, h.k.AtDaemon(t, fn))
	} else {
		h.timers = append(h.timers, h.k.At(t, fn))
	}
	h.m.at(t, daemon, child)
}

func (h *queueHarness) cancel(id int) error {
	if got, want := h.timers[id].Cancel(), h.m.cancel(id); got != want {
		return fmt.Errorf("Cancel(event %d) = %v, want %v", id, got, want)
	}
	return nil
}

// timerAt finds the id of the live event sitting in queue slot i.
func (h *queueHarness) timerAt(i int) int {
	e := h.k.queue[i]
	for id, tm := range h.timers {
		if tm.e == e && tm.gen == e.gen {
			return id
		}
	}
	return -1
}

func (h *queueHarness) check() error {
	k, m := h.k, &h.m
	for i, e := range k.queue {
		if e.idx != i {
			return fmt.Errorf("slot %d holds an event with idx %d", i, e.idx)
		}
		if i > 0 && before(e, k.queue[(i-1)/4]) {
			return fmt.Errorf("slot %d fires before its parent", i)
		}
	}
	for id, tm := range h.timers {
		if queued := tm.e.gen == tm.gen && tm.e.idx >= 0; queued && k.queue[tm.e.idx] != tm.e {
			return fmt.Errorf("event %d claims slot %d, which holds another event", id, tm.e.idx)
		}
	}
	if k.Pending() != len(m.pending) || k.MaxQueue() != m.maxQueue || k.daemons != m.daemons() {
		return fmt.Errorf("pending/maxQueue/daemons = %d/%d/%d, want %d/%d/%d",
			k.Pending(), k.MaxQueue(), k.daemons, len(m.pending), m.maxQueue, m.daemons())
	}
	if k.Now() != m.now {
		return fmt.Errorf("now = %v, want %v", k.Now(), m.now)
	}
	if at, ok := k.NextAt(); ok != (len(m.pending) > 0) || (ok && at != m.next().at) {
		return fmt.Errorf("NextAt = %v,%v with %d pending in the model", at, ok, len(m.pending))
	}
	if !reflect.DeepEqual(h.fired, m.fired) {
		return fmt.Errorf("fire order diverged:\n got %v\nwant %v", h.fired, m.fired)
	}
	return nil
}

// runQueueModel plays one random operation sequence; times come from a
// small integer range so that equal-time ties are the common case.
func runQueueModel(seed int64) error {
	r := rand.New(rand.NewSource(seed))
	h := &queueHarness{k: NewKernel()}
	for step := 0; step < 500; step++ {
		var err error
		switch op := r.Intn(20); {
		case op < 5:
			child := Duration(-1)
			if r.Intn(3) == 0 {
				child = Duration(r.Intn(6))
			}
			h.at(h.k.Now()+Duration(r.Intn(40)-4), false, child) // sometimes in the past
		case op < 9:
			h.at(Time(r.Intn(400)), false, -1)
		case op < 11:
			h.at(h.k.Now()+Duration(r.Intn(60)), true, -1)
		case op < 14 && len(h.timers) > 0:
			// Any handle ever issued: pending, fired, cancelled, or one
			// whose struct has since been reused.
			err = h.cancel(r.Intn(len(h.timers)))
		case op < 15 && h.k.Pending() > 0:
			err = h.cancel(h.timerAt(0))
		case op < 16 && h.k.Pending() > 0:
			err = h.cancel(h.timerAt(h.k.Pending() - 1))
		case op < 17 && h.k.Pending() > 0:
			err = h.cancel(h.timerAt(r.Intn(h.k.Pending())))
		case op < 19:
			until := h.k.Now() + Duration(r.Intn(5))
			h.k.Run(until)
			h.m.run(until)
		case r.Intn(8) == 0:
			h.k.Drain() // stops early when only daemons remain
			h.m.run(Forever)
		}
		if err == nil {
			err = h.check()
		}
		if err != nil {
			return fmt.Errorf("seed %d step %d: %w", seed, step, err)
		}
	}
	h.k.Drain()
	h.m.run(Forever)
	return h.check()
}

func TestQuickQueueMatchesModel(t *testing.T) {
	f := func(seed int64) bool {
		if err := runQueueModel(seed); err != nil {
			t.Error(err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
