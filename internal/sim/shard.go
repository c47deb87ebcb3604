package sim

import (
	"fmt"
	"sync"
)

// ShardedKernel is a deterministic lock-step parallel event kernel: peers
// are partitioned into K shards, each shard drains its own event heap on
// its own goroutine inside a fixed epoch window, and cross-shard events
// are buffered into per-(src,dst) batches that merge at the epoch barrier
// in canonical order: by time, then source shard, then send order.
//
// Determinism contract:
//
//   - A run is bit-identical per (workload, K): shards share no mutable
//     state during an epoch (each writes only its own heap, its own
//     outboxes, and state it owns), and the barrier merge is sequential
//     and canonically ordered. The merge needs no sort: it numbers a
//     destination's inbound events by source shard, then send order, in
//     one block of sequence numbers above every event already queued, so
//     the heap's (time, seq) order fires them by (time, source shard,
//     send order), after any local event at the same time.
//   - K=1 reproduces the plain Kernel bit-for-bit: a single shard has no
//     cross-shard events, runs on the calling goroutine, and executes the
//     same (time, seq) order as Kernel.Run.
//   - Runs are additionally K-independent when the epoch window does not
//     exceed the minimum cross-shard event delay (the classic conservative
//     lookahead bound) and cross-shard timestamps are distinct: every
//     event then executes at the same simulated time for any K. A
//     cross-shard event that arrives with a timestamp its target shard has
//     already passed is clamped to the shard's current time (the Kernel's
//     ordinary past-event rule) and counted in Stats().LateEvents — a
//     nonzero count means the window was larger than the workload's
//     lookahead. Clamped events tie at the shard's time in source order
//     (source shard, then send order), not in the order of the times
//     they were sent for.
//
// Shard callbacks must touch only state owned by their shard; anything
// destined for another shard's state crosses via Shard.DeferTo. Daemon
// events stay shard-local.
type ShardedKernel struct {
	shards []*Shard
	window Duration

	epochs       uint64
	crossEvents  uint64
	crossBatches uint64
	late         uint64

	// OnBarrier, when non-nil, runs after every epoch barrier (merge
	// complete, all shard goroutines quiescent) with the kernel's current
	// time. This is the deterministic hook telemetry samples from: it is
	// the only point during a run where reading cross-shard state is
	// safe. The hook must be a pure observer.
	OnBarrier func(now Time)
}

// Shard is one partition of a ShardedKernel: a private event heap plus
// outboxes toward every other shard. All methods except DeferTo mirror
// the plain Kernel. A shard's events run on its own goroutine during an
// epoch; the scheduling methods must only be called from that shard's own
// callbacks or while the kernel is not running (setup).
type Shard struct {
	id int
	sk *ShardedKernel
	k  *Kernel

	out         [][]xevent
	crossEvents uint64
	crossBytes  uint64
}

// xevent is one buffered cross-shard event.
type xevent struct {
	at Time
	fn func()
}

// NewSharded returns a sharded kernel with k shards and the given epoch
// window. The window is the lock-step granularity: each epoch processes
// [T, T+window) where T is the earliest pending event anywhere. Choose
// window ≤ the minimum cross-shard delay (see
// underlay.MinCrossShardLatency) for K-independent results.
func NewSharded(k int, window Duration) *ShardedKernel {
	if k < 1 {
		panic("sim: NewSharded needs ≥ 1 shard")
	}
	if window <= 0 {
		panic("sim: NewSharded needs a positive epoch window")
	}
	sk := &ShardedKernel{window: window, shards: make([]*Shard, k)}
	for i := range sk.shards {
		sk.shards[i] = &Shard{id: i, sk: sk, k: NewKernel(), out: make([][]xevent, k)}
	}
	return sk
}

// NumShards reports the shard count K.
func (sk *ShardedKernel) NumShards() int { return len(sk.shards) }

// Shard returns shard i.
func (sk *ShardedKernel) Shard(i int) *Shard { return sk.shards[i] }

// Now returns the latest simulated time across shards. During a run it is
// only meaningful at epoch barriers.
func (sk *ShardedKernel) Now() Time {
	var now Time
	for _, s := range sk.shards {
		if s.k.now > now {
			now = s.k.now
		}
	}
	return now
}

// ShardStat is one shard's frozen statistics.
type ShardStat struct {
	Shard     int
	Now       Time
	Processed uint64
	Pending   int
	MaxQueue  int
	// CrossEvents and CrossBytes count events (and their payload bytes,
	// as reported by DeferTo callers) this shard sent to other shards.
	CrossEvents uint64
	CrossBytes  uint64
}

// ShardedStats is the kernel-wide snapshot.
type ShardedStats struct {
	Now          Time
	Epochs       uint64
	Processed    uint64
	CrossEvents  uint64
	CrossBatches uint64
	// LateEvents counts cross-shard events that arrived with a timestamp
	// their target shard had already passed (clamped forward). Nonzero
	// means the epoch window exceeded the workload's lookahead.
	LateEvents uint64
	Shards     []ShardStat
}

// Stats snapshots the kernel. Call at a barrier or after Run.
func (sk *ShardedKernel) Stats() ShardedStats {
	st := ShardedStats{
		Now:          sk.Now(),
		Epochs:       sk.epochs,
		CrossEvents:  sk.crossEvents,
		CrossBatches: sk.crossBatches,
		LateEvents:   sk.late,
	}
	for _, s := range sk.shards {
		ks := s.k.Stats()
		st.Processed += ks.Processed
		st.Shards = append(st.Shards, ShardStat{
			Shard: s.id, Now: ks.Now, Processed: ks.Processed,
			Pending: ks.Pending, MaxQueue: ks.MaxQueue,
			CrossEvents: s.crossEvents, CrossBytes: s.crossBytes,
		})
	}
	return st
}

// Now returns the shard's current simulated time.
func (s *Shard) Now() Time { return s.k.now }

// Schedule runs fn on this shard after delay.
func (s *Shard) Schedule(delay Duration, fn func()) Timer { return s.k.Schedule(delay, fn) }

// At runs fn on this shard at absolute time t.
func (s *Shard) At(t Time, fn func()) Timer { return s.k.At(t, fn) }

// AtDaemon schedules a shard-local daemon event (see Kernel.AtDaemon).
func (s *Shard) AtDaemon(t Time, fn func()) Timer { return s.k.AtDaemon(t, fn) }

// DeferTo schedules fn on shard dst after delay of this shard's time.
// Same-shard deferrals go straight into the local heap; cross-shard ones
// are buffered and merge into dst's heap at the epoch barrier in
// canonical order (time, source shard, send order). bytes is an accounting
// hint (message payload size) folded into the shard's CrossBytes
// statistic; pass 0 when there is no payload.
func (s *Shard) DeferTo(dst int, delay Duration, bytes uint64, fn func()) {
	if fn == nil {
		panic("sim: nil event callback")
	}
	if delay < 0 {
		delay = 0
	}
	if dst == s.id {
		s.k.Schedule(delay, fn)
		return
	}
	if dst < 0 || dst >= len(s.out) {
		panic(fmt.Sprintf("sim: DeferTo shard %d of %d", dst, len(s.out)))
	}
	s.out[dst] = append(s.out[dst], xevent{at: s.k.now + delay, fn: fn})
	s.crossEvents++
	s.crossBytes += bytes
}

// merge delivers every buffered cross-shard batch into its destination
// heap by source shard, then send order; the heap's (time, seq) order
// makes that canonical (see ShardedKernel). Sequential; runs at the
// barrier only. Each outbox is cleared so delivered callbacks are not
// kept alive.
func (sk *ShardedKernel) merge() {
	for dst, d := range sk.shards {
		for _, s := range sk.shards {
			evs := s.out[dst]
			if len(evs) == 0 {
				continue
			}
			sk.crossBatches++
			sk.crossEvents += uint64(len(evs))
			for i := range evs {
				if evs[i].at < d.k.now {
					sk.late++
				}
				d.k.At(evs[i].at, evs[i].fn)
			}
			clear(evs)
			s.out[dst] = evs[:0]
		}
	}
}

// Run executes events across all shards in lock-step epochs until every
// queue empties (or holds only daemons in an unbounded run) or simulated
// time would exceed until. It returns Now() at the end, under the same
// horizon rule as Kernel.Run.
func (sk *ShardedKernel) Run(until Time) Time {
	unbounded := until >= Forever
	for {
		next := Forever
		pending, daemons := 0, 0
		for _, s := range sk.shards {
			if at, ok := s.k.NextAt(); ok {
				pending += s.k.Pending()
				daemons += s.k.daemons
				if at < next {
					next = at
				}
			}
		}
		if pending == 0 || next >= Forever {
			break
		}
		if unbounded && daemons == pending {
			break
		}
		if next > until {
			break
		}
		end, inclusive := next+sk.window, false
		if end >= until {
			end, inclusive = until, true
		}
		if len(sk.shards) == 1 {
			sk.shards[0].k.runEpoch(end, inclusive, unbounded)
		} else {
			var wg sync.WaitGroup
			for _, s := range sk.shards {
				wg.Add(1)
				go func(s *Shard) {
					defer wg.Done()
					s.k.runEpoch(end, inclusive, unbounded)
				}(s)
			}
			wg.Wait()
		}
		sk.merge()
		sk.epochs++
		if sk.OnBarrier != nil {
			sk.OnBarrier(sk.Now())
		}
	}
	if !unbounded {
		for _, s := range sk.shards {
			if s.k.now < until {
				s.k.now = until
			}
		}
	}
	return sk.Now()
}

// Drain runs until every shard's queue is empty (daemons excepted), with
// no time horizon.
func (sk *ShardedKernel) Drain() Time { return sk.Run(Forever) }
