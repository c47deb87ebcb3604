package underlay

import (
	"container/heap"
	"fmt"
	"runtime"
	"sync"

	"unap2p/internal/sim"
)

// route is one computed inter-AS path.
type route struct {
	path  []int // AS ids, src first, dst last; nil if unreachable
	delay sim.Duration
	hops  int // len(path)-1
}

type routeTable struct {
	n      int
	routes [][]route // [src][dst]
}

// ComputeRoutes builds the full AS-path table under the current policy.
// Sources are processed in parallel across GOMAXPROCS workers; the result
// is deterministic because each source's computation is independent.
func (n *Network) ComputeRoutes() {
	nAS := len(n.ases)
	rt := &routeTable{n: nAS, routes: make([][]route, nAS)}
	var wg sync.WaitGroup
	workers := runtime.GOMAXPROCS(0)
	if workers > nAS {
		workers = nAS
	}
	if workers < 1 {
		workers = 1
	}
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for src := range next {
				rt.routes[src] = n.routesFrom(src)
			}
		}()
	}
	for src := 0; src < nAS; src++ {
		next <- src
	}
	close(next)
	wg.Wait()
	n.routes = rt
}

func (n *Network) ensureRoutes() *routeTable {
	if n.routes == nil || n.routes.n != len(n.ases) {
		n.ComputeRoutes()
	}
	return n.routes
}

// pqItem is a priority-queue entry for the layered Dijkstra. prio1/prio2
// encode the lexicographic cost under the active policy (hops,delay) for
// ValleyFree or (delay,hops) for ShortestDelay.
type pqItem struct {
	as           int
	phase        int // 0 = uphill still allowed, 1 = downhill only
	hops         int
	delay        sim.Duration
	prio1, prio2 float64
	idx          int
}

type pq []*pqItem

func (p pq) Len() int { return len(p) }
func (p pq) Less(i, j int) bool {
	if p[i].prio1 != p[j].prio1 {
		return p[i].prio1 < p[j].prio1
	}
	if p[i].prio2 != p[j].prio2 {
		return p[i].prio2 < p[j].prio2
	}
	// Final deterministic tie-break on (as, phase).
	if p[i].as != p[j].as {
		return p[i].as < p[j].as
	}
	return p[i].phase < p[j].phase
}
func (p pq) Swap(i, j int) {
	p[i], p[j] = p[j], p[i]
	p[i].idx = i
	p[j].idx = j
}
func (p *pq) Push(x any) {
	it := x.(*pqItem)
	it.idx = len(*p)
	*p = append(*p, it)
}
func (p *pq) Pop() any {
	old := *p
	n := len(old)
	it := old[n-1]
	old[n-1] = nil
	*p = old[:n-1]
	return it
}

// routesFrom computes routes from src to every AS.
//
// Under ValleyFree it runs Dijkstra on the layered graph of (AS, phase)
// states encoding the Gao–Rexford rule: a valley-free path is zero or more
// customer→provider (uphill) hops, at most one peering hop, then zero or
// more provider→customer (downhill) hops. Cost is lexicographic
// (AS hops, delay), matching BGP's shortest-AS-path preference with a
// latency tie-break.
//
// Under ShortestDelay it is plain Dijkstra on delay.
func (n *Network) routesFrom(src int) []route {
	nAS := len(n.ases)
	const phases = 2
	type state struct {
		hops  int
		delay sim.Duration
		// prev state for path reconstruction
		prevAS, prevPhase int
		visited           bool
		reached           bool
	}
	st := make([][phases]state, nAS)
	better := func(h1 int, d1 sim.Duration, h2 int, d2 sim.Duration) bool {
		if n.Policy == ShortestDelay {
			if d1 != d2 {
				return d1 < d2
			}
			return h1 < h2
		}
		if h1 != h2 {
			return h1 < h2
		}
		return d1 < d2
	}

	var q pq
	push := func(as, phase, hops int, delay sim.Duration, prevAS, prevPhase int) {
		s := &st[as][phase]
		if s.reached && !better(hops, delay, s.hops, s.delay) {
			return
		}
		s.hops, s.delay, s.prevAS, s.prevPhase, s.reached = hops, delay, prevAS, prevPhase, true
		it := &pqItem{as: as, phase: phase, hops: hops, delay: delay}
		if n.Policy == ShortestDelay {
			it.prio1, it.prio2 = float64(delay), float64(hops)
		} else {
			it.prio1, it.prio2 = float64(hops), float64(delay)
		}
		heap.Push(&q, it)
	}
	push(src, 0, 0, 0, -1, -1)

	for q.Len() > 0 {
		it := heap.Pop(&q).(*pqItem)
		s := &st[it.as][it.phase]
		if s.visited || better(s.hops, s.delay, it.hops, it.delay) {
			continue // stale entry
		}
		s.visited = true
		u := n.ases[it.as]
		for _, l := range u.links {
			v := l.Other(it.as)
			d := it.delay + l.Delay(it.as)
			h := it.hops + 1
			if n.Policy == ShortestDelay {
				// Single phase, all edges usable.
				push(v.ID, 0, h, d, it.as, 0)
				continue
			}
			switch {
			case l.Kind == Transit && l.A.ID == it.as:
				// uphill: customer → provider, only while in phase 0
				if it.phase == 0 {
					push(v.ID, 0, h, d, it.as, it.phase)
				}
			case l.Kind == Peering:
				// one peering hop flips to downhill-only
				if it.phase == 0 {
					push(v.ID, 1, h, d, it.as, it.phase)
				}
			case l.Kind == Transit && l.B.ID == it.as:
				// downhill: provider → customer, allowed from any phase
				push(v.ID, 1, h, d, it.as, it.phase)
			}
		}
	}

	out := make([]route, nAS)
	for dst := 0; dst < nAS; dst++ {
		// Best phase at dst.
		bestPhase := -1
		for ph := 0; ph < phases; ph++ {
			if !st[dst][ph].reached {
				continue
			}
			if bestPhase < 0 || better(st[dst][ph].hops, st[dst][ph].delay,
				st[dst][bestPhase].hops, st[dst][bestPhase].delay) {
				bestPhase = ph
			}
		}
		if bestPhase < 0 {
			continue // unreachable
		}
		s := st[dst][bestPhase]
		path := make([]int, 0, s.hops+1)
		as, ph := dst, bestPhase
		for as != -1 {
			path = append(path, as)
			as, ph = st[as][ph].prevAS, st[as][ph].prevPhase
		}
		// reverse
		for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
			path[i], path[j] = path[j], path[i]
		}
		out[dst] = route{path: path, delay: s.delay, hops: s.hops}
	}
	return out
}

// ASPath returns the AS-level path from src to dst (both inclusive), or
// nil if dst is unreachable under the routing policy.
func (n *Network) ASPath(src, dst int) []int {
	if src == dst {
		return []int{src}
	}
	return n.ensureRoutes().routes[src][dst].path
}

// ASHops returns the number of inter-AS hops between two ASes (0 if same
// AS, -1 if unreachable). This is the "AS hops distance" metric the oracle
// ranks by.
func (n *Network) ASHops(src, dst int) int {
	if src == dst {
		return 0
	}
	r := n.ensureRoutes().routes[src][dst]
	if r.path == nil {
		return -1
	}
	return r.hops
}

// ASDelay returns the one-way delay between two ASes over the routed path
// (excluding intra-AS and access components), or -1 if unreachable.
func (n *Network) ASDelay(src, dst int) sim.Duration {
	if src == dst {
		return 0
	}
	r := n.ensureRoutes().routes[src][dst]
	if r.path == nil {
		return -1
	}
	return r.delay
}

// Reachable reports whether dst is reachable from src under the policy.
func (n *Network) Reachable(src, dst int) bool {
	return src == dst || n.ensureRoutes().routes[src][dst].path != nil
}

// Latency returns the one-way host-to-host delay: access links at both
// ends, intra-AS delay when the ASes coincide, or the routed inter-AS
// delay plus each endpoint AS's internal delay otherwise. It panics if the
// hosts are in mutually unreachable ASes — a configuration error.
func (n *Network) Latency(a, b *Host) sim.Duration {
	if a.ID == b.ID {
		return 0
	}
	if a.AS.ID == b.AS.ID {
		return a.AccessDelay + b.AccessDelay + a.AS.IntraDelay
	}
	return latencyVia(a, b, n.hostRoute(a, b).delay)
}

// hostRoute returns the routed path between the distinct ASes of two
// hosts, panicking when there is none.
func (n *Network) hostRoute(a, b *Host) *route {
	r := &n.ensureRoutes().routes[a.AS.ID][b.AS.ID]
	if r.path == nil {
		panic(fmt.Sprintf("underlay: host %d (AS%d) cannot reach host %d (AS%d)",
			a.ID, a.AS.ID, b.ID, b.AS.ID))
	}
	return r
}

// latencyVia is the one-way delay between hosts in different ASes whose
// routed path takes asDelay.
func latencyVia(a, b *Host, asDelay sim.Duration) sim.Duration {
	return a.AccessDelay + b.AccessDelay + a.AS.IntraDelay/2 + asDelay + b.AS.IntraDelay/2
}

// RTT returns the round-trip time between two hosts. With asymmetric link
// delays the two directions differ; RTT sums them.
func (n *Network) RTT(a, b *Host) sim.Duration {
	return n.Latency(a, b) + n.Latency(b, a)
}

// Send accounts n bytes of traffic from host a to host b: the bytes join
// the SentBytes total and every inter-AS link on the path carries them. It
// returns the one-way latency so callers can schedule message delivery.
func (n *Network) Send(a, b *Host, bytes uint64) sim.Duration {
	n.sent += bytes
	if a.AS.ID == b.AS.ID {
		return n.Latency(a, b)
	}
	r := n.hostRoute(a, b)
	for i := 0; i+1 < len(r.path); i++ {
		n.linkBetween(r.path[i], r.path[i+1]).Carry(r.path[i], bytes)
	}
	return latencyVia(a, b, r.delay)
}

// linkBetween returns the link joining two adjacent ASes on a routed path.
func (n *Network) linkBetween(a, b int) *Link {
	var best *Link
	for _, l := range n.ases[a].links {
		if l.Other(a).ID == b {
			if best == nil || l.Delay(a) < best.Delay(a) {
				best = l
			}
		}
	}
	if best == nil {
		panic(fmt.Sprintf("underlay: no link AS%d-AS%d", a, b))
	}
	return best
}
