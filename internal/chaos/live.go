package chaos

// live.go is the wall-clock half of the chaos plane. The same Schedule
// grammar the deterministic Injector arms against a sim kernel is
// interpreted here against a running cluster of socket-backed nodes:
//
//   - Partition and loss windows become inbound drop filters
//     (nettransport's SetDropRx hook) evaluated per received frame
//     against wall-clock window times. The drop plane is distributed:
//     every node arms the same schedule against the same epoch, so one
//     schedule means one cluster-wide fault pattern without any
//     coordination protocol. AS scoping survives the flat localhost
//     underlay through an injected placement function (livenode.PlaceAS
//     derives a synthetic AS from the NodeKey every process can
//     compute).
//   - Crash waves become wall-clock timers owned by one orchestrator —
//     the only party that can take a node down for real, whether that
//     is closing an in-process node's socket or SIGKILLing an unapnode
//     OS process. Victim selection is a seeded shuffle over the sorted
//     eligible pool, exactly like the sim Injector's, so the victim set
//     is precomputable (Victims) and a test can assert "evicted exactly
//     the killed nodes" before anything dies.
//
// Unlike the sim Injector there is no global purity: loss draws are
// per-node streams and wall time is real time. What is preserved is the
// schedule's *shape* — the same windows, the same scoping rules, the
// same victim-selection discipline — which is what the sim-vs-live
// conformance test leans on.

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"unap2p/internal/sim"
	"unap2p/internal/underlay"
)

// LiveClock maps wall time onto schedule time: sim.Time milliseconds
// elapsed since Epoch. Every process in a live campaign shares one
// epoch (the unapnode daemon takes it as a flag), so window boundaries
// land at the same wall instant cluster-wide.
type LiveClock struct{ Epoch time.Time }

// Now returns the current schedule time. It is negative before the
// epoch, which no valid window covers — arming a filter early is safe.
func (c LiveClock) Now() sim.Time {
	return sim.Time(float64(time.Since(c.Epoch)) / float64(time.Millisecond))
}

// LiveFilter evaluates a schedule's partition and loss windows against
// one node's inbound traffic. Drop is called from the transport's
// receive loop for every frame; partition windows drop frames crossing
// the cut, loss windows drop scoped frames with the window's
// probability from this node's private seeded stream.
type LiveFilter struct {
	sched Schedule
	clock LiveClock
	self  underlay.HostID
	asOf  func(underlay.HostID) int

	mu  sync.Mutex
	rng *rand.Rand
}

// NewLiveFilter builds the inbound drop filter for one node. asOf is
// the AS placement for window scoping (nil puts everyone in AS 0, so
// only unscoped windows bite); seed derives this node's private loss
// stream — disjoint per node, so a correlated window still draws
// independent per-frame losses, like the sim injector's per-send draws.
func NewLiveFilter(sched Schedule, clock LiveClock, self underlay.HostID,
	asOf func(underlay.HostID) int, seed int64) *LiveFilter {
	return &LiveFilter{
		sched: sched, clock: clock, self: self, asOf: asOf,
		rng: rand.New(rand.NewSource(seed ^ int64(self)*0x9e3779b9)),
	}
}

func (f *LiveFilter) as(id underlay.HostID) int {
	if f.asOf == nil {
		return 0
	}
	return f.asOf(id)
}

// Drop reports whether a frame from the given sender should be
// discarded right now, under the same window semantics as the sim
// Injector (Schedule.drops).
func (f *LiveFilter) Drop(from underlay.HostID) bool {
	return f.sched.drops(f.clock.Now(), f.as(from), f.as(f.self), f.draw)
}

// draw serializes the rand stream: the receive loop is one goroutine,
// but a revived in-process node re-arms the same filter from a fresh
// loop, so the lock keeps the stream safe across that handoff.
func (f *LiveFilter) draw() float64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.rng.Float64()
}

// LiveMember is one controllable member of a running cluster: an
// in-process livenode node (livenode.Member) or an unapnode OS process
// the orchestrator can SIGKILL.
type LiveMember interface {
	ID() underlay.HostID
	// Kill crashes the member now. From every peer's perspective the
	// node simply stops answering — exactly what Host.Up=false means in
	// the simulation.
	Kill() error
	// Revive restarts the member and rejoins it through the normal
	// hello/welcome path. Members that cannot restart (external
	// processes) return an error, which the injector records.
	Revive() error
}

// DropArmer is the optional capability of members whose inbound filter
// the injector can arm directly (in-process nodes). OS-process members
// arm themselves instead: the unapnode daemon takes the schedule, the
// epoch, and the AS placement as flags and installs its own LiveFilter.
type DropArmer interface {
	ArmDrop(fn func(from underlay.HostID) bool)
	DisarmDrop()
}

// LiveConfig tunes a LiveInjector.
type LiveConfig struct {
	// Seed drives the victim shuffles and, for DropArmer members, the
	// per-member loss streams. The victim sets are a pure function of
	// (Seed, schedule, member ids, Protect).
	Seed int64
	// ASOf places members into synthetic ASes for window scoping
	// (livenode.ASPlacement over the NodeKey space is the standard
	// choice). Required when the schedule has partition or AS-scoped
	// loss windows.
	ASOf func(underlay.HostID) int
	// Protect lists members crash waves must never take down — the
	// bootstrap, metrics vantage points.
	Protect []underlay.HostID
	// OnCrash and OnRevive observe wave events after they happen, in
	// deterministic victim order (called from the wave timer goroutine).
	OnCrash, OnRevive func(id underlay.HostID)
}

// liveWave is one precomputed crash wave.
type liveWave struct {
	win     Window
	victims []underlay.HostID
}

// LiveInjector interprets a Schedule against wall-clock windows on a
// running cluster — the live counterpart of Injector. Construct with
// NewLiveInjector, inspect Victims, then Start against an epoch; Wait
// blocks until every wave (and revive) timer has fired.
type LiveInjector struct {
	sched   Schedule
	members []LiveMember
	byID    map[underlay.HostID]LiveMember
	cfg     LiveConfig
	waves   []liveWave

	mu        sync.Mutex
	started   bool
	crashed   map[underlay.HostID]bool
	waveTimes []time.Time
	timers    []*time.Timer
	errs      []error
	wg        sync.WaitGroup
}

// NewLiveInjector validates the schedule against the member set and
// precomputes every crash wave's victims.
func NewLiveInjector(sched Schedule, members []LiveMember, cfg LiveConfig) (*LiveInjector, error) {
	if err := sched.Validate(); err != nil {
		return nil, err
	}
	scopedDrops := false
	for _, w := range sched.Windows {
		if (w.Kind == ASPartition || w.Kind == LossBurst) && len(w.ASes) > 0 {
			scopedDrops = true
		}
	}
	if scopedDrops && cfg.ASOf == nil {
		return nil, fmt.Errorf("chaos: schedule has AS-scoped windows but LiveConfig.ASOf is nil")
	}
	inj := &LiveInjector{
		sched:   sched,
		members: members,
		byID:    make(map[underlay.HostID]LiveMember, len(members)),
		cfg:     cfg,
		crashed: make(map[underlay.HostID]bool),
	}
	for _, m := range members {
		inj.byID[m.ID()] = m
	}
	inj.waves = planWaves(sched, members, cfg)
	return inj, nil
}

// planWaves replays the crash windows in start order against the
// eligible pool: victims are a seeded shuffle over the members alive at
// each wave's start (revived victims re-enter the pool once their
// window ends), the same discipline Injector.crash applies at runtime.
func planWaves(sched Schedule, members []LiveMember, cfg LiveConfig) []liveWave {
	protected := make(map[underlay.HostID]bool, len(cfg.Protect))
	for _, id := range cfg.Protect {
		protected[id] = true
	}
	pool := make([]underlay.HostID, 0, len(members))
	for _, m := range members {
		if !protected[m.ID()] {
			pool = append(pool, m.ID())
		}
	}
	sort.Slice(pool, func(i, j int) bool { return pool[i] < pool[j] })

	var crashIdx []int
	for i, w := range sched.Windows {
		if w.Kind == CrashWave {
			crashIdx = append(crashIdx, i)
		}
	}
	sort.SliceStable(crashIdx, func(a, b int) bool {
		return sched.Windows[crashIdx[a]].Start < sched.Windows[crashIdx[b]].Start
	})

	rng := rand.New(rand.NewSource(cfg.Seed))
	forever := sim.Time(math.Inf(1))
	downUntil := make(map[underlay.HostID]sim.Time)
	waves := make([]liveWave, 0, len(crashIdx))
	for _, i := range crashIdx {
		w := sched.Windows[i]
		alive := make([]underlay.HostID, 0, len(pool))
		for _, id := range pool {
			if until, down := downUntil[id]; down && w.Start < until {
				continue
			}
			alive = append(alive, id)
		}
		rng.Shuffle(len(alive), func(a, b int) { alive[a], alive[b] = alive[b], alive[a] })
		n := w.Crash
		if n > len(alive) {
			n = len(alive)
		}
		victims := append([]underlay.HostID(nil), alive[:n]...)
		sort.Slice(victims, func(a, b int) bool { return victims[a] < victims[b] })
		for _, id := range victims {
			if w.Revive {
				downUntil[id] = w.End
			} else {
				downUntil[id] = forever
			}
		}
		waves = append(waves, liveWave{win: w, victims: victims})
	}
	return waves
}

// Victims returns the precomputed victim set of every crash wave, in
// wave order — known before Start, so a test can assert the cluster
// evicts exactly these ids.
func (inj *LiveInjector) Victims() [][]underlay.HostID {
	out := make([][]underlay.HostID, len(inj.waves))
	for i, w := range inj.waves {
		out[i] = append([]underlay.HostID(nil), w.victims...)
	}
	return out
}

// Start arms the campaign against the given epoch: drop filters on
// every DropArmer member immediately, one wall-clock timer per crash
// wave (plus one per revive). Windows whose times have already passed
// fire immediately. Call once.
func (inj *LiveInjector) Start(epoch time.Time) error {
	inj.mu.Lock()
	if inj.started {
		inj.mu.Unlock()
		return fmt.Errorf("chaos: live injector already started")
	}
	inj.started = true
	inj.mu.Unlock()

	clock := LiveClock{Epoch: epoch}
	hasDrops := false
	for _, w := range inj.sched.Windows {
		if w.Kind == ASPartition || w.Kind == LossBurst {
			hasDrops = true
			break
		}
	}
	if hasDrops {
		for _, m := range inj.members {
			if da, ok := m.(DropArmer); ok {
				f := NewLiveFilter(inj.sched, clock, m.ID(), inj.cfg.ASOf, inj.cfg.Seed)
				da.ArmDrop(f.Drop)
			}
		}
	}
	for wi := range inj.waves {
		wi := wi
		w := inj.waves[wi]
		inj.wg.Add(1)
		inj.addTimer(wallDelay(epoch, w.win.Start), func() {
			defer inj.wg.Done()
			inj.fireCrash(wi)
		})
		if w.win.Revive {
			inj.wg.Add(1)
			inj.addTimer(wallDelay(epoch, w.win.End), func() {
				defer inj.wg.Done()
				inj.fireRevive(wi)
			})
		}
	}
	return nil
}

// wallDelay converts a schedule time to a delay from now against epoch.
func wallDelay(epoch time.Time, t sim.Time) time.Duration {
	d := time.Until(epoch.Add(time.Duration(float64(t) * float64(time.Millisecond))))
	if d < 0 {
		d = 0
	}
	return d
}

func (inj *LiveInjector) addTimer(d time.Duration, fn func()) {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	inj.timers = append(inj.timers, time.AfterFunc(d, fn))
}

func (inj *LiveInjector) fireCrash(wi int) {
	w := inj.waves[wi]
	inj.mu.Lock()
	inj.waveTimes = append(inj.waveTimes, time.Now())
	inj.mu.Unlock()
	for _, id := range w.victims {
		if err := inj.byID[id].Kill(); err != nil {
			inj.recordErr(fmt.Errorf("chaos: kill %d: %w", id, err))
			continue
		}
		inj.mu.Lock()
		inj.crashed[id] = true
		inj.mu.Unlock()
		if inj.cfg.OnCrash != nil {
			inj.cfg.OnCrash(id)
		}
	}
}

func (inj *LiveInjector) fireRevive(wi int) {
	w := inj.waves[wi]
	for _, id := range w.victims {
		if err := inj.byID[id].Revive(); err != nil {
			inj.recordErr(fmt.Errorf("chaos: revive %d: %w", id, err))
			continue
		}
		inj.mu.Lock()
		delete(inj.crashed, id)
		inj.mu.Unlock()
		if inj.cfg.OnRevive != nil {
			inj.cfg.OnRevive(id)
		}
	}
}

func (inj *LiveInjector) recordErr(err error) {
	inj.mu.Lock()
	inj.errs = append(inj.errs, err)
	inj.mu.Unlock()
}

// Wait blocks until every armed wave and revive timer has fired.
func (inj *LiveInjector) Wait() { inj.wg.Wait() }

// Stop cancels timers that have not fired yet; Wait then returns once
// in-flight ones finish.
func (inj *LiveInjector) Stop() {
	inj.mu.Lock()
	timers := inj.timers
	inj.timers = nil
	inj.mu.Unlock()
	for _, t := range timers {
		if t.Stop() {
			inj.wg.Done()
		}
	}
}

// Err returns the first kill/revive failure, or nil.
func (inj *LiveInjector) Err() error {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	if len(inj.errs) == 0 {
		return nil
	}
	return inj.errs[0]
}

// Crashed returns the members currently down by injection, sorted.
func (inj *LiveInjector) Crashed() []underlay.HostID {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	return underlay.SortedIDs(inj.crashed)
}

// WaveTimes returns the wall instants at which crash waves fired so
// far — the zero point of every time-to-recover measurement.
func (inj *LiveInjector) WaveTimes() []time.Time {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	return append([]time.Time(nil), inj.waveTimes...)
}

// ScrapeProm fetches a Prometheus text endpoint — the /metrics every
// live node serves — and returns series name → sample value, labels
// stripped (a labeled series keeps its last sample). The live campaign
// checks drive the same chaos.Report invariants from these numbers
// that the sim harness drives from in-memory counters.
func ScrapeProm(url string) (map[string]float64, error) {
	client := http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("chaos: scrape %s: status %s", url, resp.Status)
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(string(body), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			continue
		}
		name := fields[0]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
		if err != nil {
			continue
		}
		out[name] = v
	}
	return out, nil
}
