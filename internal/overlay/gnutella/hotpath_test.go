package gnutella

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"unap2p/internal/megascale"
	"unap2p/internal/sim"
	"unap2p/internal/transport"
	"unap2p/internal/underlay"
)

// CompactFlood used to dedup in one map per shard, keyed qid<<32|peer
// and never pruned, and PotentialHit in a map[PeerID]bool. Both are kept
// here, verbatim, as the references the per-query peer sets must match
// count for count.

type refFlood struct {
	g    *CompactFlood
	seen []map[uint64]struct{}
	qseq []uint32
}

func newRefFlood(g *CompactFlood) *refFlood {
	shards := g.net.Kernel().NumShards()
	r := &refFlood{g: g, seen: make([]map[uint64]struct{}, shards), qseq: make([]uint32, shards)}
	for i := range r.seen {
		r.seen[i] = make(map[uint64]struct{})
	}
	return r
}

func (r *refFlood) query(origin underlay.PeerID, seed uint64, onDone func(megascale.Result)) {
	g := r.g
	key := megascale.Mix64(seed ^ 0x6e7e11a)
	owners := g.owners(key, nil)
	oshard := g.net.ShardOf(origin)
	g.ctr.Start(oshard)
	qid := uint64(r.qseq[oshard])<<8 | uint64(oshard)
	r.qseq[oshard]++
	st := &floodQuery{g: g, origin: origin, best: origin}
	// The reference's hits go through the production reply, and each
	// hit's handler drops a reference that no reference handler took:
	// hold more than its hits can drop, so its query is never recycled
	// under it.
	st.refs.Store(math.MaxInt32)
	if g.uidx[origin] >= 0 {
		r.deliver(origin, origin, qid, owners, g.cfg.QueryTTL, 0, st)
	} else {
		base := int(origin) * compactLeafParents
		for i := 0; i < int(g.pcnt[origin]); i++ {
			up := underlay.PeerID(g.par[base+i])
			g.net.Send(origin, up, g.qryClass, queryBytes, func() {
				r.deliver(origin, up, qid, owners, g.cfg.QueryTTL, 1, st)
			})
		}
	}
	g.net.Kernel().Shard(oshard).Schedule(queryTimeout, func() {
		ok := st.hits > 0
		g.ctr.Finish(oshard, ok, st.firstHop)
		if refPotentialHit(g, origin, key) {
			g.potential[oshard]++
		}
		if onDone != nil {
			onDone(megascale.Result{Origin: origin, Best: st.best, OK: ok, Hops: st.firstHop})
		}
	})
}

func (r *refFlood) deliver(origin, u underlay.PeerID, qid uint64,
	owners []underlay.PeerID, ttl, hops int, st *floodQuery) {
	g := r.g
	if !g.net.Peers().Up(u) {
		return
	}
	shard := g.net.ShardOf(u)
	dk := qid<<32 | uint64(u)
	if _, dup := r.seen[shard][dk]; dup {
		return
	}
	r.seen[shard][dk] = struct{}{}
	for _, o := range owners {
		o := o
		if !g.attachedTo(o, u) {
			continue
		}
		if o == u {
			st.reply(u, uint16(hops))
			continue
		}
		hop := hops + 1
		g.net.Send(u, o, g.qryClass, queryBytes, func() {
			if !g.net.Peers().Up(o) {
				return
			}
			lk := qid<<32 | uint64(o)
			ls := g.net.ShardOf(o)
			if _, dup := r.seen[ls][lk]; dup {
				return
			}
			r.seen[ls][lk] = struct{}{}
			st.reply(o, uint16(hop))
		})
	}
	if ttl <= 1 {
		return
	}
	ui := int(g.uidx[u])
	base := ui * compactMaxDeg
	for i := 0; i < int(g.ncnt[ui]); i++ {
		v := underlay.PeerID(g.nbr[base+i])
		g.net.Send(u, v, g.qryClass, queryBytes, func() {
			r.deliver(origin, v, qid, owners, ttl-1, hops+1, st)
		})
	}
}

func refPotentialHit(g *CompactFlood, origin underlay.PeerID, key uint64) bool {
	owners := g.owners(key, nil)
	type qe struct {
		u   underlay.PeerID
		ttl int
	}
	var frontier []qe
	visited := map[underlay.PeerID]bool{}
	if g.uidx[origin] >= 0 {
		frontier = append(frontier, qe{origin, g.cfg.QueryTTL})
		visited[origin] = true
	} else {
		base := int(origin) * compactLeafParents
		for i := 0; i < int(g.pcnt[origin]); i++ {
			up := underlay.PeerID(g.par[base+i])
			if !visited[up] {
				visited[up] = true
				frontier = append(frontier, qe{up, g.cfg.QueryTTL})
			}
		}
	}
	for len(frontier) > 0 {
		e := frontier[0]
		frontier = frontier[1:]
		for _, o := range owners {
			if g.attachedTo(o, e.u) {
				return true
			}
		}
		if e.ttl <= 1 {
			continue
		}
		ui := int(g.uidx[e.u])
		base := ui * compactMaxDeg
		for i := 0; i < int(g.ncnt[ui]); i++ {
			v := underlay.PeerID(g.nbr[base+i])
			if !visited[v] {
				visited[v] = true
				frontier = append(frontier, qe{v, e.ttl - 1})
			}
		}
	}
	return false
}

// floodOutcome is everything a flood run reports.
type floodOutcome struct {
	Results   [][]megascale.Result // per origin shard, in completion order
	Stats     megascale.Stats
	Potential uint64
	Net       transport.NetStats
	Processed uint64
}

// runFlood drives a churned workload in which every peer issues
// overlapping queries, through the production flood or the reference.
func runFlood(t *testing.T, seed uint64, K int, aware, reference bool) floodOutcome {
	out, _ := runFloodOn(seed, K, 10, 40, 8000, aware, reference)
	return out
}

// runFloodOn is runFlood on stubs linked to the transit with delay link:
// every peer issues a query at gap-spaced rounds, staggered by up to
// 49 ms, and the kernel runs until the horizon.
func runFloodOn(seed uint64, K int, link, gap sim.Duration, until sim.Time, aware, reference bool) (floodOutcome, *CompactFlood) {
	net := buildShardedNet(32, K, link)
	g := compactFloodOn(net, seed, aware)
	query := g.Query
	if reference {
		query = newRefFlood(g).query
	}
	megascale.AttachChurn(net, seed^0x77, megascale.ChurnConfig{Frac: 5, MeanOn: 400, MeanOff: 150})
	out := floodOutcome{Results: make([][]megascale.Result, K)}
	pt := net.Peers()
	for p := 0; p < pt.Len(); p++ {
		p := underlay.PeerID(p)
		shard := net.ShardOf(p)
		for rep := 0; rep < 3; rep++ {
			qseed := megascale.Mix64(seed ^ uint64(p)<<8 ^ uint64(rep))
			net.Kernel().Shard(shard).Schedule(sim.Duration(int(p)%50)+gap*sim.Duration(rep), func() {
				query(p, qseed, func(r megascale.Result) {
					out.Results[shard] = append(out.Results[shard], r)
				})
			})
		}
	}
	net.Kernel().Run(until)
	out.Stats, out.Potential = g.MegaStats(), g.Potential()
	out.Net, out.Processed = net.Stats(), net.Kernel().Stats().Processed
	return out, g
}

func TestCompactFloodMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		for _, K := range []int{1, 2, 4} {
			for _, aware := range []bool{false, true} {
				got := runFlood(t, seed, K, aware, false)
				want := runFlood(t, seed, K, aware, true)
				if got.Stats.OK == 0 || got.Stats.Done != 3*128 {
					t.Fatalf("seed %d K=%d aware=%v: degenerate workload %+v", seed, K, aware, got.Stats)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("seed %d K=%d aware=%v: flood diverged from the global-map reference\n got %+v %d %+v %d\nwant %+v %d %+v %d",
						seed, K, aware,
						got.Stats, got.Potential, got.Net, got.Processed,
						want.Stats, want.Potential, want.Net, want.Processed)
				}
			}
		}
	}
}

// TestCompactFloodLateMessages runs floods that outlive their deadline:
// with 1 500 ms stub links a cross-AS hop takes over 3 s, so most of a
// flood's messages, on every shard, run after the query was scored, and
// the last reference to a query falls to a message, often on a shard
// other than the origin's. Each peer queries in three rounds 10 s apart,
// so later rounds run on recycled queries while earlier floods are still
// in flight, and the flood must match the reference count for count. The
// horizon leaves the last round twice its longest flood (five hops of
// ~3.1 s), so once it is reached every query must sit on exactly one
// free list, with no reference left and its sets cleared.
func TestCompactFloodLateMessages(t *testing.T) {
	const link, gap = 1500, 10000
	const horizon = 2*gap + 50 + 30000
	for _, K := range []int{2, 4} {
		for seed := uint64(1); seed <= 2; seed++ {
			got, g := runFloodOn(seed, K, link, gap, horizon, false, false)
			want, _ := runFloodOn(seed, K, link, gap, horizon, false, true)
			if got.Stats.OK == 0 || got.Stats.Done != 3*128 {
				t.Fatalf("seed %d K=%d: degenerate workload %+v", seed, K, got.Stats)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("seed %d K=%d: late flood diverged from the global-map reference\n got %+v %d %+v %d\nwant %+v %d %+v %d",
					seed, K, got.Stats, got.Potential, got.Net, got.Processed,
					want.Stats, want.Potential, want.Net, want.Processed)
			}
			// The last round's deadlines have all fired 3 050 ms after it.
			scored, _ := runFloodOn(seed, K, link, gap, 2*gap+50+queryTimeout, false, false)
			if scored.Stats.Done != got.Stats.Done || scored.Net.Msgs >= got.Net.Msgs {
				t.Fatalf("seed %d K=%d: %d of %d messages and %d of %d queries scored by the last deadline: no message ran late",
					seed, K, scored.Net.Msgs, got.Net.Msgs, scored.Stats.Done, got.Stats.Done)
			}
			freed, away := map[*floodQuery]bool{}, 0
			for shard, l := range g.spare {
				for st := l.queries; st != nil; st = st.next {
					if freed[st] {
						t.Fatalf("seed %d K=%d: a query is freed twice", seed, K)
					}
					freed[st] = true
					if int(st.oshard) != shard {
						away++
					}
					if n := st.refs.Load(); n != 0 {
						t.Fatalf("seed %d K=%d: a freed query holds %d references", seed, K, n)
					}
					for i := range st.seen {
						if st.seen[i].n != 0 || slices.ContainsFunc(st.seen[i].slots, func(v uint32) bool { return v != 0 }) {
							t.Fatalf("seed %d K=%d: a freed query's shard-%d set is not cleared", seed, K, i)
						}
					}
				}
			}
			t.Logf("seed %d K=%d: %d of %d messages ran after the last deadline; %d queries for %d floods, %d freed by a message off the origin's shard",
				seed, K, got.Net.Msgs-scored.Net.Msgs, got.Net.Msgs, len(freed), got.Stats.Done, away)
			if away == 0 || len(freed) >= int(got.Stats.Done) {
				t.Fatalf("seed %d K=%d: %d queries for %d floods, %d freed off the origin's shard: the late path was not exercised",
					seed, K, len(freed), got.Stats.Done, away)
			}
		}
	}
}

func TestPotentialHitMatchesReference(t *testing.T) {
	outcomes := map[bool]int{}
	for _, aware := range []bool{false, true} {
		g, net := buildCompactFlood(t, 64, 1, 3, aware)
		for ttl := 1; ttl <= 3; ttl++ {
			g.cfg.QueryTTL = ttl
			for p := 0; p < net.Peers().Len(); p++ {
				for k := uint64(0); k < 4; k++ {
					key := megascale.Mix64(k<<32 | uint64(p))
					got, want := g.PotentialHit(underlay.PeerID(p), key), refPotentialHit(g, underlay.PeerID(p), key)
					if got != want {
						t.Fatalf("aware=%v ttl=%d: PotentialHit(%d, %#x) = %v, reference %v", aware, ttl, p, key, got, want)
					}
					outcomes[got]++
				}
			}
		}
	}
	if outcomes[true] < 100 || outcomes[false] < 100 {
		t.Fatalf("outcomes %v: the comparison barely saw one of the two", outcomes)
	}
}

// TestCompactFloodRetainsNothingPerQuery pins the lifetime of dedup
// state: a drained query leaves nothing behind but its recycled state on
// a free list, which holds at most the peak number of queries in flight.
// So the heap after 6 000 drained queries is the heap after the first
// 2 000, and retention cannot grow with the number of queries. The
// global map held every (query, peer) visit — 5 MB at 2 000 queries.
func TestCompactFloodRetainsNothingPerQuery(t *testing.T) {
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	g, net := buildCompactFlood(t, 256, 2, 13, false)
	base := heap()
	pt := net.Peers()
	issued := 0
	issue := func(queries int) uint64 {
		for j := 0; j < queries; j++ {
			i := issued + j
			p := underlay.PeerID(megascale.Mix64(uint64(i)) % uint64(pt.Len()))
			net.Kernel().Shard(net.ShardOf(p)).Schedule(sim.Duration(20*j), func() {
				g.Query(p, uint64(i), nil)
			})
		}
		issued += queries
		net.Kernel().Drain()
		if st := g.MegaStats(); st.Done != uint64(issued) || st.OK == 0 {
			t.Fatalf("workload did not run: %+v after %d queries", st, issued)
		}
		return heap()
	}
	first := issue(2000)
	after := issue(4000)
	const slack = 256 << 10 // 64 B a query over the last 4 000
	t.Logf("%d messages; heap %d B after Bootstrap, %d B after 2 000 drained queries, %d B after 6 000",
		net.Stats().Msgs, base, first, after)
	if after > first+slack {
		t.Fatalf("heap grew %d B over 4 000 more drained queries (slack %d): per-query state is being retained",
			after-first, slack)
	}
	runtime.KeepAlive(g)
}

func TestPeerSet(t *testing.T) {
	var s peerSet
	ids := []underlay.PeerID{0, math.MaxUint32 - 1}
	for i := 0; len(ids) < 512; i++ {
		ids = append(ids, underlay.PeerID(1+megascale.Mix64(uint64(i))%(math.MaxUint32-2)))
	}
	sizes := map[int]bool{}
	for i, id := range ids {
		if !s.add(id) {
			t.Fatalf("add(%d) reported a duplicate on first insert (dense hashed ids collide only by bad luck: reseed)", id)
		}
		if s.add(id) {
			t.Fatalf("add(%d) twice reported absent", id)
		}
		if s.n != i+1 {
			t.Fatalf("n = %d after %d distinct ids", s.n, i+1)
		}
		sizes[len(s.slots)] = true
	}
	for _, id := range ids {
		if s.add(id) {
			t.Fatalf("id %d lost in growth", id)
		}
	}
	want := map[int]bool{16: true, 32: true, 64: true, 128: true, 256: true, 512: true, 1024: true}
	if !reflect.DeepEqual(sizes, want) {
		t.Fatalf("table sizes %v, want %v", sizes, want)
	}
}

// TestRunSearchAllocs pins the allocations of one settled query flood on
// the warmed 100-node ultrapeer mesh of BenchmarkSearchFlood. Neighbour
// sets are ranged in place and messages are recycled records, not a
// closure each, so what is left of the ~226 messages' cost is the
// result and the growth of the reached nodes' seen maps.
func TestRunSearchAllocs(t *testing.T) {
	o := benchOverlay(t, false)
	from := o.Nodes()[0].Host.ID
	o.RunSearch(from, 7)
	if allocs := testing.AllocsPerRun(100, func() { o.RunSearch(from, 7) }); allocs > 16 {
		t.Fatalf("RunSearch allocates %.0f times, want ≤ 16", allocs)
	}
}

// TestMessageRecordSize holds a message record in the 48 B size class
// of the closure it replaced: records in flight outnumber the kernel's
// events at a flood's peak, and a 112 B record raised paper-unstructured's
// peak RSS by 18 %.
func TestMessageRecordSize(t *testing.T) {
	if size := unsafe.Sizeof(message{}); size > 48 {
		t.Fatalf("message record is %d B, want ≤ 48", size)
	}
}

// TestHostcachePermMatchesRandPerm holds the host cache's scratch
// permutation to rand.Perm: the same permutation from an identically
// seeded source, leaving the source in the same state.
func TestHostcachePermMatchesRandPerm(t *testing.T) {
	o := &Overlay{}
	for _, n := range []int{0, 1, 2, 7, 100, 1000} {
		o.r = rand.New(rand.NewSource(int64(n) + 3))
		ref := rand.New(rand.NewSource(int64(n) + 3))
		want := ref.Perm(n)
		if got := o.permute(n); !slices.Equal(got, want) {
			t.Fatalf("n=%d: permute %v, rand.Perm %v", n, got, want)
		}
		if got, want := o.r.Int63(), ref.Int63(); got != want {
			t.Fatalf("n=%d: next draw %d, rand.Perm's %d", n, got, want)
		}
	}
}

// TestCompactFloodAllocs pins the flood's allocation budget on a warmed
// K=2 flood from one origin, whose traffic between the two shards is as
// one-sided as a workload gets: a query plus its drain allocates nothing
// per transport message, in count or in bytes (messages are recycled
// records that ride home), and nothing per query (the query, its dedup
// tables and its bound deadline are recycled once its last message has
// run), only the sharded kernel's per-epoch barrier (a WaitGroup, the
// epoch bounds, one goroutine and its closure per shard, and what the
// runtime needs to park and wake them: ~7 at K=2). The ground-truth BFS
// on a warmed shard scratch allocates nothing.
func TestCompactFloodAllocs(t *testing.T) {
	g, net := buildCompactFlood(t, 1000, 2, 17, false)
	k := net.Kernel()
	origin := underlay.PeerID(0)
	for !g.IsUltra(origin) {
		origin++
	}
	var seed uint64
	query := func() {
		seed++
		g.Query(origin, seed, nil)
		k.Drain()
	}
	for i := 0; i < 20; i++ {
		query()
	}
	const runs = 200
	var before, after runtime.MemStats
	msgs0, epochs0 := net.Stats().Msgs, k.Stats().Epochs
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(runs, query)
	runtime.ReadMemStats(&after)
	// AllocsPerRun makes one warm-up call before its runs.
	msgs := float64(net.Stats().Msgs-msgs0) / (runs + 1)
	epochs := float64(k.Stats().Epochs-epochs0) / (runs + 1)
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / (runs + 1)
	const (
		queryAllocs, epochAllocs = 0, 7
		queryBytes, epochBytes   = 0, 256
	)
	t.Logf("per query: %.1f messages, %.3f epochs, %.3f allocs, %.0f B", msgs, epochs, allocs, bytes)
	if msgs < 100 {
		t.Fatalf("%.1f messages per query: the flood is too small to measure", msgs)
	}
	if budget := queryAllocs + epochAllocs*epochs; allocs > budget {
		t.Errorf("%.1f allocs per query, want ≤ %.1f (%d per query + %d per epoch, none per message)",
			allocs, budget, queryAllocs, epochAllocs)
	}
	if budget := queryBytes + epochBytes*epochs; bytes > budget {
		t.Errorf("%.0f B per query, want ≤ %.0f (%d per query + %d per epoch, none per message)",
			bytes, budget, queryBytes, epochBytes)
	}

	var owners [replicas]underlay.PeerID
	g.owners(megascale.Mix64(7), owners[:0])
	s := &g.scratch[net.ShardOf(origin)]
	g.potentialHit(origin, &owners, s)
	if n := testing.AllocsPerRun(100, func() { g.potentialHit(origin, &owners, s) }); n != 0 {
		t.Errorf("potentialHit on warmed scratch allocates %.0f times, want 0", n)
	}
}
