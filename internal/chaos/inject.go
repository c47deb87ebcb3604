package chaos

import (
	"fmt"
	"math/rand"
	"sort"

	"unap2p/internal/sim"
	"unap2p/internal/transport"
	"unap2p/internal/underlay"
)

// Injector arms a schedule against a live world: partition and loss
// windows install a time-gated Drop hook on the transport;
// crash waves become kernel events that flip Host.Up. All randomness
// (loss draws, victim selection) flows from the single seeded stream,
// so a campaign is bit-identical per seed.
type Injector struct {
	K     *sim.Kernel
	T     *transport.Transport
	U     *underlay.Network
	Sched Schedule
	// Rand drives loss-burst draws and crash-victim shuffles. Required
	// when the schedule has loss bursts or crash waves.
	Rand *rand.Rand
	// Eligible is the pool crash waves pick victims from; nil means
	// every host in the underlay. Pinning the pool lets tests protect
	// vantage points and sources from the waves.
	Eligible []*underlay.Host
	// OnCrash and OnRevive observe wave events (after Up is flipped),
	// in deterministic victim order.
	OnCrash, OnRevive func(h *underlay.Host)

	crashed map[underlay.HostID]bool
	armed   bool
}

// NewInjector binds a schedule to a kernel and transport.
func NewInjector(k *sim.Kernel, tr *transport.Transport, sched Schedule, r *rand.Rand) *Injector {
	return &Injector{
		K:       k,
		T:       tr,
		U:       tr.Underlay(),
		Sched:   sched,
		Rand:    r,
		crashed: make(map[underlay.HostID]bool),
	}
}

// Arm validates the schedule, chains the drop hook, and schedules the
// crash waves. Call once, before Run.
func (inj *Injector) Arm() error {
	if inj.armed {
		return fmt.Errorf("chaos: injector already armed")
	}
	if err := inj.Sched.Validate(); err != nil {
		return err
	}
	needsRand := false
	hasDropWindows := false
	for _, w := range inj.Sched.Windows {
		switch w.Kind {
		case ASPartition:
			hasDropWindows = true
		case LossBurst:
			hasDropWindows = true
			if w.Loss > 0 {
				needsRand = true
			}
		case CrashWave:
			needsRand = true
		}
	}
	if needsRand && inj.Rand == nil {
		return fmt.Errorf("chaos: schedule needs a rand source")
	}
	inj.armed = true
	if hasDropWindows {
		prev := inj.T.Drop
		inj.T.Drop = func(from, to *underlay.Host) bool {
			if prev != nil && prev(from, to) {
				return true
			}
			return inj.drop(from, to)
		}
	}
	for _, w := range inj.Sched.Windows {
		if w.Kind != CrashWave {
			continue
		}
		w := w
		inj.K.At(w.Start, func() { inj.crash(w) })
	}
	return nil
}

// drop applies the active partition and loss windows to one send.
func (inj *Injector) drop(from, to *underlay.Host) bool {
	return inj.Sched.drops(inj.K.Now(), from.AS.ID, to.AS.ID, inj.Rand.Float64)
}

// crash executes one wave: victims are the first Crash hosts of a
// seeded shuffle over the live eligible pool (id-sorted first, so the
// shuffle is deterministic), taken down together.
func (inj *Injector) crash(w Window) {
	pool := inj.Eligible
	if pool == nil {
		pool = inj.U.Hosts()
	}
	var alive []*underlay.Host
	for _, h := range pool {
		if h.Up && !inj.crashed[h.ID] {
			alive = append(alive, h)
		}
	}
	sort.Slice(alive, func(i, j int) bool { return alive[i].ID < alive[j].ID })
	inj.Rand.Shuffle(len(alive), func(i, j int) { alive[i], alive[j] = alive[j], alive[i] })
	n := w.Crash
	if n > len(alive) {
		n = len(alive)
	}
	victims := alive[:n]
	sort.Slice(victims, func(i, j int) bool { return victims[i].ID < victims[j].ID })
	for _, h := range victims {
		h.Up = false
		inj.crashed[h.ID] = true
		if inj.OnCrash != nil {
			inj.OnCrash(h)
		}
	}
	if w.Revive {
		revived := victims
		inj.K.At(w.End, func() {
			for _, h := range revived {
				h.Up = true
				delete(inj.crashed, h.ID)
				if inj.OnRevive != nil {
					inj.OnRevive(h)
				}
			}
		})
	}
}

// Crashed returns the hosts currently down by injection, sorted.
func (inj *Injector) Crashed() []underlay.HostID {
	return underlay.SortedIDs(inj.crashed)
}
