package megascale

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"unap2p/internal/sim"
	"unap2p/internal/transport"
	"unap2p/internal/underlay"
)

// refIterWalk is the walk as Iter ran it before the shared
// lookup.Shortlist — a candidate slice kept sorted through sort.Search and
// cut to Width, beside a map of everyone ever queried — kept verbatim as
// the oracle: the new walk has no queried set, on the argument that a
// candidate cut from the list can never come back, and this is what that
// argument is checked against.
type refIterWalk struct {
	it      *Iter
	origin  underlay.PeerID
	target  uint64
	cand    []underlay.PeerID // candidates sorted by distance
	queried map[underlay.PeerID]bool
	inFly   int
	hops    int
	done    bool
	onDone  func(Result)
}

func refIterStart(it *Iter, origin underlay.PeerID, target uint64, onDone func(Result)) {
	it.Ctr.Start(it.Net.ShardOf(origin))
	st := &refIterWalk{
		it: it, origin: origin, target: target,
		queried: make(map[underlay.PeerID]bool, it.Width),
		onDone:  onDone,
	}
	for _, c := range it.Candidates(origin, target, nil) {
		st.insert(c)
	}
	st.step()
}

func (st *refIterWalk) step() {
	if st.done {
		return
	}
	it := st.it
	issued := false
	for _, q := range st.cand {
		if st.inFly >= it.Alpha {
			break
		}
		if st.queried[q] {
			continue
		}
		st.queried[q] = true
		st.inFly++
		st.hops++
		issued = true
		st.request(q)
	}
	if !issued && st.inFly == 0 {
		st.finish()
	}
}

func (st *refIterWalk) request(q underlay.PeerID) {
	it := st.it
	origin, target := st.origin, st.target
	it.Net.Send(origin, q, it.ReqClass, it.RPCBytes, func() {
		var found []underlay.PeerID
		alive := it.Net.Peers().Up(q)
		if alive {
			found = it.Candidates(q, target, nil)
		}
		bytes := it.RPCBytes
		if !alive {
			bytes = 0
		}
		it.Net.Send(q, origin, it.RepClass, bytes, func() {
			st.inFly--
			if alive {
				for _, c := range found {
					if it.Learn != nil {
						it.Learn(origin, c)
					}
					st.insert(c)
				}
			}
			st.step()
		})
	})
}

func (st *refIterWalk) insert(c underlay.PeerID) {
	if c == st.origin {
		return
	}
	it := st.it
	dc := it.Dist(c, st.target)
	for _, e := range st.cand {
		if e == c {
			return
		}
	}
	i := sort.Search(len(st.cand), func(i int) bool {
		de := it.Dist(st.cand[i], st.target)
		if de != dc {
			return de > dc
		}
		return st.cand[i] >= c
	})
	st.cand = append(st.cand, 0)
	copy(st.cand[i+1:], st.cand[i:])
	st.cand[i] = c
	if len(st.cand) > it.Width {
		st.cand = st.cand[:it.Width]
	}
}

func (st *refIterWalk) finish() {
	st.done = true
	it := st.it
	best := st.origin
	if len(st.cand) > 0 {
		best = st.cand[0]
	}
	res := Result{
		Origin: st.origin, Best: best,
		OK: it.OK(best, st.target), Hops: st.hops,
	}
	it.Ctr.Finish(it.Net.ShardOf(st.origin), res.OK, st.hops)
	if st.onDone != nil {
		st.onDone(res)
	}
}

// TestIterMatchesReferenceWalk runs the same lookups, one at a time, over
// two identically built stacks — random routing tables, a sixth of the
// peers down, a working set narrow enough (Width 5 against 6-contact
// replies) that candidates are cut from it all the time — one through
// Iter, one through the reference walk, under the XOR and the ring
// metric. Every lookup must ask the same live peers in the same order,
// take as many hops, settle on the same Best and charge the transport the
// same (which also counts the requests that went to dead peers).
func TestIterMatchesReferenceWalk(t *testing.T) {
	const perAS, lookups = 24, 150
	for _, metric := range []string{"xor", "ring"} {
		t.Run(metric, func(t *testing.T) {
			type walk struct {
				asked []underlay.PeerID
				res   Result
			}
			run := func(start func(*Iter, underlay.PeerID, uint64, func(Result))) ([]walk, transport.NetStats, Stats) {
				net := buildStack(t, perAS, 1)
				n := net.Peers().Len()
				space := NewIDSpace(n, 11)
				rng := rand.New(rand.NewSource(29))
				tables := make([][]underlay.PeerID, n)
				for p := range tables {
					r := space.Rank(underlay.PeerID(p))
					tables[p] = []underlay.PeerID{space.ByRank((r + 1) % n), space.ByRank((r + n - 1) % n)}
					for len(tables[p]) < 14 {
						tables[p] = append(tables[p], underlay.PeerID(rng.Intn(n)))
					}
					if rng.Intn(6) == 0 {
						net.Peers().SetUp(underlay.PeerID(p), false)
					}
				}
				dist := func(q underlay.PeerID, target uint64) uint64 { return space.ID(q) ^ target }
				if metric == "ring" {
					dist = func(q underlay.PeerID, target uint64) uint64 { return CWDist(space.ID(q), target-1) }
				}
				var cur *walk
				it := NewIter(Iter{
					Net: net, ReqClass: 0, RepClass: 1, RPCBytes: 64,
					Alpha: 3, Width: 5, Ctr: NewCounters(1),
					Dist: dist,
					Candidates: func(q underlay.PeerID, target uint64, buf []underlay.PeerID) []underlay.PeerID {
						if q != cur.res.Origin {
							cur.asked = append(cur.asked, q)
						}
						// The six nearest of q's table, repeats and all.
						out := append([]underlay.PeerID(nil), tables[q]...)
						sort.SliceStable(out, func(i, j int) bool { return dist(out[i], target) < dist(out[j], target) })
						return append(buf, out[:6]...)
					},
					OK: func(underlay.PeerID, uint64) bool { return true },
				})
				walks := make([]walk, lookups)
				for i := range walks {
					origin := underlay.PeerID(rng.Intn(n))
					cur = &walks[i]
					cur.res.Origin = origin
					net.Kernel().Shard(0).Schedule(1, func() {
						start(it, origin, Mix64(uint64(i)), func(r Result) { cur.res = r })
					})
					net.Kernel().Drain()
				}
				return walks, net.Stats(), it.Ctr.Stats()
			}
			got, gotNet, gotCtr := run((*Iter).Start)
			want, wantNet, wantCtr := run(refIterStart)
			cut := 0
			for i := range want {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Fatalf("lookup %d diverges from the reference walk:\n got %+v\nwant %+v", i, got[i], want[i])
				}
				if want[i].res.Hops > 5 {
					cut++ // more requests than the working set is wide: something was cut from it
				}
			}
			if !reflect.DeepEqual(gotNet, wantNet) || gotCtr != wantCtr {
				t.Fatalf("transport or counters differ:\n got %+v %+v\nwant %+v %+v", gotNet, gotCtr, wantNet, wantCtr)
			}
			if cut < lookups/2 {
				t.Fatalf("only %d of %d walks outgrew the working set: the table is too easy to test the cut", cut, lookups)
			}
		})
	}
}

// TestIterOverlapMatchesReferenceWalk is TestIterMatchesReferenceWalk
// with the lookups in flight together, at K=1 and K=2, so that a state
// or RPC record a finished lookup handed back is taken again while
// others still hold theirs. Each lookup has a target of its own, which
// is how Candidates tells whose hop it serves; the peers asked are logged
// per shard and lookup, since two shards ask concurrently.
func TestIterOverlapMatchesReferenceWalk(t *testing.T) {
	const perAS, lookups = 24, 160
	for _, metric := range []string{"xor", "ring"} {
		for _, K := range []int{1, 2} {
			type outcome struct {
				asked [][][]underlay.PeerID // [shard][lookup]
				res   []Result
				net   transport.NetStats
				ctr   Stats
				spare int // state records on the free lists after the drain
			}
			run := func(start func(*Iter, underlay.PeerID, uint64, func(Result))) outcome {
				net := buildStack(t, perAS, K)
				n := net.Peers().Len()
				space := NewIDSpace(n, 11)
				rng := rand.New(rand.NewSource(31))
				tables := make([][]underlay.PeerID, n)
				for p := range tables {
					r := space.Rank(underlay.PeerID(p))
					tables[p] = []underlay.PeerID{space.ByRank((r + 1) % n), space.ByRank((r + n - 1) % n)}
					for len(tables[p]) < 14 {
						tables[p] = append(tables[p], underlay.PeerID(rng.Intn(n)))
					}
					if rng.Intn(6) == 0 {
						net.Peers().SetUp(underlay.PeerID(p), false)
					}
				}
				dist := func(q underlay.PeerID, target uint64) uint64 { return space.ID(q) ^ target }
				if metric == "ring" {
					dist = func(q underlay.PeerID, target uint64) uint64 { return CWDist(space.ID(q), target-1) }
				}
				out := outcome{asked: make([][][]underlay.PeerID, K), res: make([]Result, lookups)}
				for s := range out.asked {
					out.asked[s] = make([][]underlay.PeerID, lookups)
				}
				origins := make([]underlay.PeerID, lookups)
				byTarget := make(map[uint64]int, lookups)
				for i := range origins {
					origins[i] = underlay.PeerID(rng.Intn(n))
					byTarget[Mix64(uint64(i))] = i
				}
				if len(byTarget) != lookups {
					t.Fatal("two lookups share a target")
				}
				it := NewIter(Iter{
					Net: net, ReqClass: 0, RepClass: 1, RPCBytes: 64,
					Alpha: 3, Width: 5, Ctr: NewCounters(K),
					Dist: dist,
					Candidates: func(q underlay.PeerID, target uint64, buf []underlay.PeerID) []underlay.PeerID {
						if i := byTarget[target]; q != origins[i] {
							s := net.ShardOf(q)
							out.asked[s][i] = append(out.asked[s][i], q)
						}
						out := append([]underlay.PeerID(nil), tables[q]...)
						sort.SliceStable(out, func(i, j int) bool { return dist(out[i], target) < dist(out[j], target) })
						return append(buf, out[:6]...)
					},
					OK: func(underlay.PeerID, uint64) bool { return true },
				})
				for i, origin := range origins {
					net.Kernel().Shard(net.ShardOf(origin)).Schedule(sim.Duration(1+2*i), func() {
						start(it, origin, Mix64(uint64(i)), func(r Result) { out.res[i] = r })
					})
				}
				net.Kernel().Drain()
				for _, sh := range it.shards {
					out.spare += len(sh.states)
				}
				out.net, out.ctr = net.Stats(), it.Ctr.Stats()
				return out
			}
			got, want := run((*Iter).Start), run(refIterStart)
			if got.ctr.Done != lookups {
				t.Fatalf("%s K=%d: %d of %d lookups finished", metric, K, got.ctr.Done, lookups)
			}
			for i := range want.res {
				if got.res[i] != want.res[i] {
					t.Fatalf("%s K=%d: lookup %d ends at %+v, the reference at %+v", metric, K, i, got.res[i], want.res[i])
				}
			}
			if !reflect.DeepEqual(got.asked, want.asked) {
				t.Fatalf("%s K=%d: the lookups asked other peers, or in another order, than the reference", metric, K)
			}
			if !reflect.DeepEqual(got.net, want.net) || got.ctr != want.ctr {
				t.Fatalf("%s K=%d: transport or counters differ:\n got %+v %+v\nwant %+v %+v", metric, K, got.net, got.ctr, want.net, want.ctr)
			}
			// A shard allocates a state record only when all of its
			// earlier ones are in use, so its count is the peak of its
			// lookups in flight.
			t.Logf("%s K=%d: %d state records served %d lookups", metric, K, got.spare, lookups)
			if got.spare < 64 || got.spare >= lookups {
				t.Fatalf("%s K=%d: %d state records for %d lookups: fewer than 64 overlapped, or no record was reused",
					metric, K, got.spare, lookups)
			}
		}
	}
}
