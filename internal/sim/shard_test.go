package sim

import (
	"reflect"
	"testing"
	"testing/quick"
)

// propEvent is one observed callback execution in a property-test run.
type propEvent struct {
	At  Time
	Tag uint64
}

const (
	propPeers     = 12
	propLookahead = Duration(5)
)

// runPropSchedule executes a pseudo-random event workload derived from
// seed on a K-shard kernel and returns the per-peer execution log. The
// workload respects the conservative-simulation contract the kernel's
// K-independence depends on: every cross-peer deferral is delayed by at
// least the lookahead (= the epoch window), and all timestamps carry 53
// random bits so ties are (measure-zero) impossible. Under that contract
// each peer must observe the identical (time, tag) sequence for any K.
func runPropSchedule(seed uint64, K int) [propPeers][]propEvent {
	sk := NewSharded(K, propLookahead)
	shardOf := func(p int) int { return p % K }
	// logs[p] is written only by peer p's owning shard: race-free.
	var logs [propPeers][]propEvent

	u01 := func(h uint64) float64 { return float64(h>>11) / (1 << 53) }
	var hop func(p int, chain uint64, depth int) func()
	hop = func(p int, chain uint64, depth int) func() {
		return func() {
			s := sk.Shard(shardOf(p))
			logs[p] = append(logs[p], propEvent{At: s.Now(), Tag: chain<<8 | uint64(depth)})
			if depth >= 4 {
				return
			}
			h := Mix64((seed ^ chain<<20 ^ uint64(depth)<<12 ^ uint64(p)) + splitmixGamma)
			q := int(h % propPeers)
			delay := propLookahead * Duration(1+u01(Mix64(h+splitmixGamma)))
			s.DeferTo(shardOf(q), delay, 16, hop(q, chain, depth+1))
		}
	}
	for p := 0; p < propPeers; p++ {
		for c := 0; c < 3; c++ {
			chain := uint64(p)*3 + uint64(c) + 1
			t0 := Duration(100 * u01(Mix64((seed^0xa5a5a5a5^chain)+splitmixGamma)))
			sk.Shard(shardOf(p)).At(t0, hop(p, chain, 0))
		}
	}
	sk.Drain()
	return logs
}

// TestShardedKIndependenceQuick is the satellite property test: K=1 and
// K=4 runs of the same random schedule produce identical event execution
// order and timestamps at every peer.
func TestShardedKIndependenceQuick(t *testing.T) {
	prop := func(seed uint64) bool {
		return reflect.DeepEqual(runPropSchedule(seed, 1), runPropSchedule(seed, 4))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// legacyTrace runs a schedule builder on a plain Kernel and on a 1-shard
// ShardedKernel and returns both global traces plus kernel stats, for the
// bit-for-bit K=1 equivalence tests.
type traceEntry struct {
	At  Time
	Tag int
}

func buildMixedSchedule(seed uint64, schedule func(delay Duration, fn func()), atDaemon func(t Time, fn func()), now func() Time, log *[]traceEntry) {
	// A braid of chained events, fan-out bursts, and a daemon ticker —
	// enough to exercise heap order, daemon accounting, and pooling.
	tag := 0
	var chain func(depth int) func()
	chain = func(depth int) func() {
		id := tag
		tag++
		return func() {
			*log = append(*log, traceEntry{At: now(), Tag: id})
			if depth < 6 {
				h := Mix64((seed ^ uint64(id)<<16 ^ uint64(depth)) + splitmixGamma)
				schedule(Duration(float64(h>>11)/(1<<50)), chain(depth+1))
				if h%3 == 0 {
					schedule(Duration(float64(Mix64(h+splitmixGamma)>>11)/(1<<50)), chain(depth+2))
				}
			}
		}
	}
	for c := 0; c < 8; c++ {
		h := Mix64((seed ^ 0xdead ^ uint64(c)) + splitmixGamma)
		schedule(Duration(float64(h>>11)/(1<<50)), chain(0))
	}
	atDaemon(3, func() { *log = append(*log, traceEntry{At: now(), Tag: -1}) })
}

// TestShardedK1MatchesKernel pins K=1 ≡ legacy Kernel bit-for-bit: same
// global execution trace, same end time, same processed/max-queue stats.
func TestShardedK1MatchesKernel(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		var legacyLog []traceEntry
		k := NewKernel()
		buildMixedSchedule(seed, func(d Duration, fn func()) { k.Schedule(d, fn) },
			func(at Time, fn func()) { k.AtDaemon(at, fn) }, k.Now, &legacyLog)
		legacyEnd := k.Run(Forever)

		var shardLog []traceEntry
		sk := NewSharded(1, 7)
		s := sk.Shard(0)
		buildMixedSchedule(seed, func(d Duration, fn func()) { s.Schedule(d, fn) },
			func(at Time, fn func()) { s.AtDaemon(at, fn) }, s.Now, &shardLog)
		shardEnd := sk.Run(Forever)

		if !reflect.DeepEqual(legacyLog, shardLog) {
			t.Fatalf("seed %d: traces diverge (legacy %d events, sharded %d)",
				seed, len(legacyLog), len(shardLog))
		}
		if legacyEnd != shardEnd {
			t.Fatalf("seed %d: end time %v vs %v", seed, legacyEnd, shardEnd)
		}
		ks, ss := k.Stats(), sk.Stats()
		if ks.Processed != ss.Processed || ks.MaxQueue != ss.Shards[0].MaxQueue {
			t.Fatalf("seed %d: stats diverge: %+v vs %+v", seed, ks, ss)
		}
	}
}

// TestShardedK1BoundedHorizon checks the horizon-jump semantics match the
// legacy kernel for bounded runs.
func TestShardedK1BoundedHorizon(t *testing.T) {
	k := NewKernel()
	k.Schedule(10, func() {})
	k.Run(100)

	sk := NewSharded(1, 7)
	sk.Shard(0).Schedule(10, func() {})
	end := sk.Run(100)
	if end != k.Now() || sk.Now() != k.Now() || end != 100 {
		t.Fatalf("bounded run ended at %v (legacy %v), want 100", end, k.Now())
	}
	// Events exactly at the horizon still fire (legacy processes at == until).
	fired := false
	sk.Shard(0).At(200, func() { fired = true })
	sk.Run(200)
	if !fired {
		t.Fatal("event at horizon did not fire")
	}
}

// TestRunHorizonBelowNow runs a horizon below the clock on both kernels:
// it fires nothing, leaves the clock where the earlier horizon put it,
// and both Runs return that clock, so a later schedule cannot fire before
// a horizon already passed.
func TestRunHorizonBelowNow(t *testing.T) {
	k := NewKernel()
	sk := NewSharded(1, 7)
	s := sk.Shard(0)
	var fired, shardFired []Time
	k.Schedule(10, func() { fired = append(fired, k.Now()) })
	s.Schedule(10, func() { shardFired = append(shardFired, s.Now()) })
	for _, until := range []Time{5, 3} {
		end, shardEnd := k.Run(until), sk.Run(until)
		if end != 5 || k.Now() != 5 || shardEnd != 5 || sk.Now() != 5 {
			t.Fatalf("Run(%v) ended at %v/%v (sharded %v/%v), want 5",
				until, end, k.Now(), shardEnd, sk.Now())
		}
	}
	k.Schedule(1, func() { fired = append(fired, k.Now()) })
	s.Schedule(1, func() { shardFired = append(shardFired, s.Now()) })
	k.Drain()
	sk.Drain()
	want := []Time{6, 10}
	if !reflect.DeepEqual(fired, want) || !reflect.DeepEqual(shardFired, want) {
		t.Fatalf("events fired at %v (sharded %v), want %v", fired, shardFired, want)
	}
}

// TestShardedLateClamp checks that a window wider than the workload's
// lookahead degrades deterministically: late cross-shard events are
// clamped to the destination's current time and counted, and two
// identical runs still produce identical logs.
func TestShardedLateClamp(t *testing.T) {
	run := func() ([propPeers][]propEvent, ShardedStats) {
		sk := NewSharded(4, 1000) // window ≫ 5ms lookahead: guaranteed late arrivals
		var logs [propPeers][]propEvent
		for p := 0; p < propPeers; p++ {
			p := p
			// Each hop of the chain runs on a different shard; the closure
			// carries its current shard so it only ever reads the clock of
			// the shard executing it.
			var loop func(cur int) func()
			loop = func(cur int) func() {
				return func() {
					s := sk.Shard(cur)
					logs[p] = append(logs[p], propEvent{At: s.Now(), Tag: uint64(len(logs[p]))})
					if len(logs[p]) < 20 {
						nxt := (cur + 1) % 4
						s.DeferTo(nxt, 5, 8, loop(nxt))
					}
				}
			}
			sk.Shard(p%4).At(Duration(p), loop(p%4))
		}
		sk.Drain()
		return logs, sk.Stats()
	}
	l1, s1 := run()
	l2, s2 := run()
	if !reflect.DeepEqual(l1, l2) {
		t.Fatal("late-clamped runs diverge")
	}
	if s1.LateEvents == 0 {
		t.Fatal("expected late events with window ≫ lookahead")
	}
	if s1.LateEvents != s2.LateEvents || s1.Epochs != s2.Epochs {
		t.Fatalf("stats diverge: %+v vs %+v", s1, s2)
	}
	if s1.CrossEvents == 0 || s1.CrossBatches == 0 {
		t.Fatalf("cross-shard counters empty: %+v", s1)
	}
}
