// Package churn drives peer session dynamics: hosts alternate between
// online and offline periods drawn from exponential or heavy-tailed
// Weibull distributions. The paper flags "robustness especially against
// churn" as the open evaluation question for underlay-aware systems
// (§5.4); experiments inject churn through this package.
package churn

import (
	"math/rand"

	"unap2p/internal/sim"
	"unap2p/internal/underlay"
)

// Model draws session and absence durations.
type Model interface {
	// SessionLength returns how long a peer stays online.
	SessionLength(r *rand.Rand) sim.Duration
	// OffTime returns how long a peer stays offline before rejoining.
	OffTime(r *rand.Rand) sim.Duration
}

// Exponential is the classical memoryless churn model.
type Exponential struct {
	MeanOn, MeanOff sim.Duration
}

// SessionLength draws an exponential online period.
func (m Exponential) SessionLength(r *rand.Rand) sim.Duration {
	return sim.Exp(r, m.MeanOn)
}

// OffTime draws an exponential offline period.
func (m Exponential) OffTime(r *rand.Rand) sim.Duration {
	return sim.Exp(r, m.MeanOff)
}

// Weibull matches measured P2P session lengths (shape < 1 gives the
// heavy tail: many short sessions, a few very long ones).
type Weibull struct {
	ShapeOn  float64
	ScaleOn  sim.Duration
	ShapeOff float64
	ScaleOff sim.Duration
}

// SessionLength draws a Weibull online period.
func (m Weibull) SessionLength(r *rand.Rand) sim.Duration {
	return sim.Duration(sim.Weibull(r, m.ShapeOn, float64(m.ScaleOn)))
}

// OffTime draws a Weibull offline period.
func (m Weibull) OffTime(r *rand.Rand) sim.Duration {
	return sim.Duration(sim.Weibull(r, m.ShapeOff, float64(m.ScaleOff)))
}

// Driver schedules join/leave events for a set of hosts on a kernel.
type Driver struct {
	Kernel *sim.Kernel
	// ModelFor returns a host's session model — e.g. sessions drawn from
	// each peer's own resource profile (capable peers tend to be the
	// stable ones, the premise of super-peer election).
	ModelFor func(*underlay.Host) Model
	Rand     *rand.Rand
	// OnJoin and OnLeave are invoked after the host's Up flag flips;
	// either may be nil.
	OnJoin  func(*underlay.Host)
	OnLeave func(*underlay.Host)
	// Trace, when non-nil, observes every session transition (after Up
	// flips, before OnJoin/OnLeave) — the telemetry layer's event source.
	// up reports the host's new state.
	Trace func(h *underlay.Host, up bool)
	// Joins and Leaves count events for reporting.
	Joins, Leaves uint64

	// hosts remembers every population handed to Start, so Online can
	// report the live population mid-run (the telemetry probe samples
	// it as a health gauge).
	hosts []*underlay.Host
}

// Start begins the online/offline cycle for each host. Hosts currently up
// get a session expiry; hosts down get a rejoin time.
func (d *Driver) Start(hosts []*underlay.Host) {
	d.hosts = append(d.hosts, hosts...)
	for _, h := range hosts {
		h := h
		if h.Up {
			d.scheduleLeave(h)
		} else {
			d.scheduleJoin(h)
		}
	}
}

// Online reports how many driven hosts are currently up — the live
// population under churn.
func (d *Driver) Online() int {
	n := 0
	for _, h := range d.hosts {
		if h.Up {
			n++
		}
	}
	return n
}

func (d *Driver) scheduleLeave(h *underlay.Host) {
	d.Kernel.Schedule(d.ModelFor(h).SessionLength(d.Rand), func() {
		if !h.Up {
			return
		}
		h.Up = false
		d.Leaves++
		if d.Trace != nil {
			d.Trace(h, false)
		}
		if d.OnLeave != nil {
			d.OnLeave(h)
		}
		d.scheduleJoin(h)
	})
}

func (d *Driver) scheduleJoin(h *underlay.Host) {
	d.Kernel.Schedule(d.ModelFor(h).OffTime(d.Rand), func() {
		if h.Up {
			return
		}
		h.Up = true
		d.Joins++
		if d.Trace != nil {
			d.Trace(h, true)
		}
		if d.OnJoin != nil {
			d.OnJoin(h)
		}
		d.scheduleLeave(h)
	})
}
