package resilience

import (
	"fmt"

	"unap2p/internal/metrics"
	"unap2p/internal/sim"
	"unap2p/internal/transport"
	"unap2p/internal/underlay"
)

// Healer is the Suspect/Evict/Replace contract an overlay implements to
// stay consistent when the failure detector declares a peer dead. Every
// overlay in this repo provides one (see each package's heal.go):
//
//	Suspect(id) — advisory: the peer missed enough pings to be doubted.
//	  The overlay may deprioritize it (skip it as a lookup candidate,
//	  prefer other parents) but must not drop state yet: suspicion can
//	  be recanted.
//	Evict(id) — terminal: remove the peer from every overlay structure
//	  AND replace it (the "Replace" half of the contract) — promote a
//	  replacement-cache entry, re-elect an ultrapeer, repair the
//	  successor list, refill the choke set, re-attach children —
//	  selecting replacements through core.Selector so the repaired
//	  overlay stays underlay-aware.
type Healer interface {
	Suspect(id underlay.HostID)
	Evict(id underlay.HostID)
}

// Pinger is the one transport verb the detector uses: a request/reply
// exchange between two hosts under a caller-supplied retry policy.
// *transport.Transport satisfies it as-is; the real-socket plane supplies
// a small adapter over its payload RPC (internal/livenode) rather than
// imitating the whole simulated transport.
type Pinger interface {
	RoundTripWith(p transport.RetryPolicy, from, to *underlay.Host,
		reqBytes, respBytes uint64, reqType, respType string) transport.Result
}

// Config tunes a Detector.
type Config struct {
	// PingInterval is the healthy-peer probe period.
	PingInterval sim.Duration
	// SuspectAfter is the consecutive-failure streak that triggers
	// Suspect (must be ≥ 1).
	SuspectAfter int
	// EvictAfter is the consecutive-failure streak that triggers Evict
	// (must be ≥ SuspectAfter).
	EvictAfter int
	// Backoff spaces the probes after a failure: the n-th consecutive
	// failure delays the next ping by Backoff.Delay(n) instead of
	// PingInterval, so a struggling peer is probed on a widening,
	// jittered schedule rather than hammered. A zero-Base backoff keeps
	// the flat PingInterval.
	Backoff Backoff
}

// DefaultConfig probes every 500 ms of sim time, suspects after 2 missed
// acks, evicts after 4, and backs off exponentially (250 ms → 2 s, 10%
// jitter — set Backoff.Rand before use or zero the jitter).
func DefaultConfig() Config {
	return Config{
		PingInterval: 500,
		SuspectAfter: 2,
		EvictAfter:   4,
		Backoff:      Backoff{Base: 250, Max: 2000, Factor: 2, Jitter: 0.1},
	}
}

// pingBytes sizes each fd_ping / fd_ack message.
const pingBytes uint64 = 32

type watchKey struct {
	vantage, target underlay.HostID
}

type watch struct {
	vantage, target *underlay.Host
	fails           int
	timer           sim.Timer
	stopped         bool
}

// Detector is a sim-time ping/timeout failure detector. Each Watch
// probes a target from a vantage host with real fd_ping/fd_ack round
// trips through its Pinger (counted, charged, fault-injectable);
// deadline events live on the sim kernel as daemon timers so pending
// pings never keep an unbounded Run alive. Consecutive missed acks
// escalate Suspect → Evict through the registered callbacks; a late ack
// recants suspicion (Recover).
//
// A Detector is driven by the single kernel goroutine and is not
// goroutine-safe, like everything else in the simulation.
type Detector struct {
	T   Pinger
	K   *sim.Kernel
	Cfg Config

	// OnSuspect, OnEvict and OnRecover observe verdicts; Heal chains an
	// overlay's Healer onto the first two.
	OnSuspect func(id underlay.HostID)
	OnEvict   func(id underlay.HostID)
	OnRecover func(id underlay.HostID)

	watches   map[watchKey]*watch
	suspected map[underlay.HostID]bool
	dead      Ledger
	msgs      *metrics.CounterSet
}

// New builds a detector that pings through p and schedules its deadlines
// on k — sim-time events, or wall-clock ones when k is paced
// (nettransport.Pacer).
func New(p Pinger, k *sim.Kernel, cfg Config) *Detector {
	if k == nil {
		panic("resilience: Detector requires a kernel")
	}
	if cfg.PingInterval <= 0 {
		panic("resilience: Config.PingInterval must be positive")
	}
	if cfg.SuspectAfter < 1 || cfg.EvictAfter < cfg.SuspectAfter {
		panic(fmt.Sprintf("resilience: need 1 ≤ SuspectAfter (%d) ≤ EvictAfter (%d)",
			cfg.SuspectAfter, cfg.EvictAfter))
	}
	return &Detector{
		T:         p,
		K:         k,
		Cfg:       cfg,
		watches:   make(map[watchKey]*watch),
		suspected: make(map[underlay.HostID]bool),
		msgs:      metrics.NewCounterSet(),
	}
}

// Heal chains a Healer's Suspect/Evict after any already-registered
// callbacks, so telemetry observers and the overlay repair path can
// share one detector.
func (d *Detector) Heal(h Healer) {
	prevS, prevE := d.OnSuspect, d.OnEvict
	d.OnSuspect = func(id underlay.HostID) {
		if prevS != nil {
			prevS(id)
		}
		h.Suspect(id)
	}
	d.OnEvict = func(id underlay.HostID) {
		if prevE != nil {
			prevE(id)
		}
		h.Evict(id)
	}
}

// Counters exposes the detector's verdict counters — register them with
// a telemetry registry under the name "resilience" so run files carry
// resilience:ping, resilience:suspect, resilience:evict, … series.
func (d *Detector) Counters() *metrics.CounterSet { return d.msgs }

// Watch starts probing target from vantage. Watching an already-watched
// pair or an evicted target is a no-op.
func (d *Detector) Watch(vantage, target *underlay.Host) {
	key := watchKey{vantage.ID, target.ID}
	if _, dup := d.watches[key]; dup || d.dead.IsEvicted(target.ID) || vantage.ID == target.ID {
		return
	}
	w := &watch{vantage: vantage, target: target}
	d.watches[key] = w
	d.schedule(w, d.Cfg.PingInterval)
}

// Unwatch stops every watch probing target (e.g. after the overlay
// removed the peer for its own reasons).
func (d *Detector) Unwatch(target underlay.HostID) {
	for key, w := range d.watches {
		if key.target == target {
			w.stopped = true
			w.timer.Cancel()
			delete(d.watches, key)
		}
	}
}

// Watching returns the number of live watches.
func (d *Detector) Watching() int { return len(d.watches) }

// Suspected returns the currently suspected (not yet evicted) peers,
// sorted.
func (d *Detector) Suspected() []underlay.HostID { return underlay.SortedIDs(d.suspected) }

// Evicted returns every peer the detector has declared dead, sorted.
func (d *Detector) Evicted() []underlay.HostID { return d.dead.Evicted() }

func (d *Detector) schedule(w *watch, delay sim.Duration) {
	w.timer = d.K.AtDaemon(d.K.Now()+delay, func() { d.tick(w) })
}

// tick runs one probe round for a watch.
func (d *Detector) tick(w *watch) {
	if w.stopped {
		return
	}
	if !w.vantage.Up {
		// The vantage itself is offline: no verdict either way; resume
		// probing when (if) it returns.
		d.schedule(w, d.Cfg.PingInterval)
		return
	}
	d.msgs.Get("ping").Inc()
	res := d.T.RoundTripWith(transport.RetryPolicy{}, w.vantage, w.target,
		pingBytes, pingBytes, "fd_ping", "fd_ack")
	// A crashed peer never acks: the request may reach the host, but no
	// fd_ack comes back. The underlay charges the request leg either
	// way — failure detection traffic is real traffic.
	if res.OK && w.target.Up {
		d.ack(w)
		d.schedule(w, d.Cfg.PingInterval)
		return
	}
	d.msgs.Get("ping_fail").Inc()
	w.fails++
	if w.fails == d.Cfg.SuspectAfter {
		d.msgs.Get("suspect").Inc()
		d.suspected[w.target.ID] = true
		if d.OnSuspect != nil {
			d.OnSuspect(w.target.ID)
		}
	}
	if w.fails >= d.Cfg.EvictAfter {
		d.evict(w)
		return
	}
	delay := d.Cfg.PingInterval
	if d.Cfg.Backoff.Base > 0 {
		delay = d.Cfg.Backoff.Delay(w.fails)
	}
	d.schedule(w, delay)
}

// ack handles a delivered fd_ack: a suspected peer is recanted.
func (d *Detector) ack(w *watch) {
	if w.fails == 0 {
		return
	}
	w.fails = 0
	if d.suspected[w.target.ID] {
		delete(d.suspected, w.target.ID)
		d.msgs.Get("recover").Inc()
		if d.OnRecover != nil {
			d.OnRecover(w.target.ID)
		}
	}
}

// evict declares w's target dead: every watch on it stops, and OnEvict
// (the overlay's repair hook) fires exactly once per target.
func (d *Detector) evict(w *watch) {
	id := w.target.ID
	d.Unwatch(id)
	if !d.dead.MarkEvicted(id) {
		return
	}
	delete(d.suspected, id)
	d.msgs.Get("evict").Inc()
	if d.OnEvict != nil {
		d.OnEvict(id)
	}
}

// HealthStats feeds telemetry.Recorder.ObserveHealth: the
// detector's live state as probe-visible gauges, so `unapctl series`
// renders suspicion/eviction waves and time-to-recover curves.
//
//   - watched: live watch count
//   - suspected / evicted: current verdict set sizes
//   - pings / ping_fails / recoveries: cumulative probe outcomes
func (d *Detector) HealthStats() map[string]float64 {
	return map[string]float64{
		"watched":    float64(len(d.watches)),
		"suspected":  float64(len(d.suspected)),
		"evicted":    float64(len(d.dead.evicted)),
		"pings":      float64(d.msgs.Value("ping")),
		"ping_fails": float64(d.msgs.Value("ping_fail")),
		"recoveries": float64(d.msgs.Value("recover")),
	}
}
