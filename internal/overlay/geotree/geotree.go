// Package geotree implements a Globase.KOM-style hierarchical, tree-based
// geolocation overlay (Kovacevic et al., IEEE P2P 2007 — [19] in the
// paper): the world is divided into rectangular zones arranged in a tree;
// each zone has a supervisor peer; peers register in the leaf zone
// containing their position; location-constrained search ("fully
// retrievable location-based search") descends only into zones that
// intersect the query area.
package geotree

import (
	"fmt"

	"unap2p/internal/core"
	"unap2p/internal/geo"
	"unap2p/internal/metrics"
	"unap2p/internal/resilience"
	"unap2p/internal/sim"
	"unap2p/internal/transport"
	"unap2p/internal/underlay"
)

// Tree parameters, sized for simulated populations.
const (
	// splitThreshold is the zone population that triggers a 4-way split.
	splitThreshold = 8
	// maxDepth bounds splitting (a zone at maxDepth grows unbounded).
	maxDepth = 8
	// msgBytes is the size of one control message.
	msgBytes uint64 = 80
)

// zone is one node of the area tree.
type zone struct {
	box        geo.Box
	depth      int
	supervisor underlay.HostID
	hasSuper   bool
	members    []underlay.HostID // leaf only
	children   []*zone           // nil for leaf
}

// Tree is the overlay instance.
type Tree struct {
	// T carries control messages; U serves topology queries.
	T *transport.Transport
	U *underlay.Network
	// Msgs counts control messages ("register", "search", "result") — a
	// view of the transport's counters.
	Msgs *metrics.CounterSet

	root  *zone
	where map[underlay.HostID]*zone
	sel   core.Selector
	// Ledger records the failure detector's evictions (see heal.go).
	resilience.Ledger
}

// New creates a tree covering the whole globe, sending through tr. The
// selector's Position verb supplies peer coordinates (a core.GeoSelector
// for perfect GPS fixes; wrap it to model mapping error); a nil selector
// — or one with no position answer — falls back to ground truth.
func New(tr *transport.Transport, sel core.Selector) *Tree {
	return &Tree{
		T:    tr,
		U:    tr.Underlay(),
		Msgs: tr.Counters(),
		root: &zone{
			box: geo.Box{MinLat: -90, MaxLat: 90, MinLon: -180, MaxLon: 180},
		},
		where: make(map[underlay.HostID]*zone),
		sel:   sel,
	}
}

// pos returns h's position as the selector believes it, falling back to
// ground truth when no selector answers.
func (t *Tree) pos(h *underlay.Host) geo.Coord {
	if t.sel != nil {
		if c, ok := t.sel.Position(h); ok {
			return c
		}
	}
	return geo.Coord{Lat: h.Lat, Lon: h.Lon}
}

// Size returns the number of registered peers.
func (t *Tree) Size() int { return len(t.where) }

// Insert registers a host at its ground-truth position, counting the
// registration messages along the supervisor chain from the root to the
// responsible leaf.
func (t *Tree) Insert(h *underlay.Host) {
	if _, dup := t.where[h.ID]; dup {
		panic(fmt.Sprintf("geotree: host %d already registered", h.ID))
	}
	pos := t.pos(h)
	z := t.root
	for {
		// One register-hop message per level (client → zone supervisor).
		if z.hasSuper && z.supervisor != h.ID {
			// Best effort: a lost register-hop is simply not re-sent.
			t.T.Send(h, t.U.Host(z.supervisor), msgBytes, "register")
		}
		if z.children == nil {
			break
		}
		z = z.childFor(pos)
	}
	z.members = append(z.members, h.ID)
	t.where[h.ID] = z
	if !z.hasSuper {
		z.supervisor = h.ID
		z.hasSuper = true
	}
	if len(z.members) > splitThreshold && z.depth < maxDepth {
		t.split(z)
	}
}

// Remove deregisters a host (churn). Supervisors of emptied zones are
// reassigned from remaining members when possible.
func (t *Tree) Remove(h *underlay.Host) {
	z, ok := t.where[h.ID]
	if !ok {
		return
	}
	delete(t.where, h.ID)
	for i, id := range z.members {
		if id == h.ID {
			z.members = append(z.members[:i], z.members[i+1:]...)
			break
		}
	}
	if z.hasSuper && z.supervisor == h.ID {
		if len(z.members) > 0 {
			z.supervisor = z.members[0]
		} else {
			z.hasSuper = false
		}
	}
}

func (t *Tree) split(z *zone) {
	midLat := (z.box.MinLat + z.box.MaxLat) / 2
	midLon := (z.box.MinLon + z.box.MaxLon) / 2
	boxes := []geo.Box{
		{MinLat: z.box.MinLat, MaxLat: midLat, MinLon: z.box.MinLon, MaxLon: midLon},
		{MinLat: z.box.MinLat, MaxLat: midLat, MinLon: midLon, MaxLon: z.box.MaxLon},
		{MinLat: midLat, MaxLat: z.box.MaxLat, MinLon: z.box.MinLon, MaxLon: midLon},
		{MinLat: midLat, MaxLat: z.box.MaxLat, MinLon: midLon, MaxLon: z.box.MaxLon},
	}
	z.children = make([]*zone, 4)
	for i, b := range boxes {
		z.children[i] = &zone{box: b, depth: z.depth + 1}
	}
	members := z.members
	z.members = nil
	for _, id := range members {
		h := t.U.Host(id)
		c := z.childFor(t.pos(h))
		c.members = append(c.members, id)
		t.where[id] = c
		if !c.hasSuper {
			c.supervisor = id
			c.hasSuper = true
		}
	}
}

// childFor returns the child zone containing pos (boundary points go to
// the higher-index child deterministically).
func (z *zone) childFor(pos geo.Coord) *zone {
	midLat := (z.box.MinLat + z.box.MaxLat) / 2
	midLon := (z.box.MinLon + z.box.MaxLon) / 2
	idx := 0
	if pos.Lat >= midLat {
		idx += 2
	}
	if pos.Lon >= midLon {
		idx++
	}
	return z.children[idx]
}

// SearchStats reports the cost of one area search.
type SearchStats struct {
	// Msgs is the number of overlay messages exchanged.
	Msgs int
	// Latency approximates the search time: the longest root-to-leaf
	// message chain plus result return.
	Latency sim.Duration
	// ZonesVisited counts tree nodes touched.
	ZonesVisited int
}

// SearchBox returns every registered peer inside the box, by descending
// from the root only into intersecting zones — the pruning that makes
// location-constrained queries cheap.
func (t *Tree) SearchBox(from *underlay.Host, box geo.Box) ([]underlay.HostID, SearchStats) {
	var out []underlay.HostID
	var st SearchStats
	var walk func(z *zone, chain sim.Duration)
	walk = func(z *zone, chain sim.Duration) {
		st.ZonesVisited++
		if !boxesIntersect(z.box, box) {
			return
		}
		hop := chain
		if z.hasSuper {
			st.Msgs++
			sr := t.T.Send(from, t.U.Host(z.supervisor), msgBytes, "search")
			if !sr.OK {
				return // lost search prunes this subtree from the query
			}
			hop = chain + sr.Latency
			if hop > st.Latency {
				st.Latency = hop
			}
		}
		if z.children == nil {
			for _, id := range z.members {
				h := t.U.Host(id)
				if h.Up && box.Contains(t.pos(h)) {
					st.Msgs++
					if rr := t.T.Send(h, from, msgBytes, "result"); rr.OK {
						out = append(out, id)
					}
				}
			}
			return
		}
		for _, c := range z.children {
			walk(c, hop)
		}
	}
	walk(t.root, 0)
	return out, st
}

// NearestPeer finds the registered peer geographically closest to pos by
// expanding-ring box searches — the point-of-interest primitive of §2.4.
func (t *Tree) NearestPeer(from *underlay.Host, pos geo.Coord) (underlay.HostID, SearchStats, bool) {
	var total SearchStats
	for radius := 50.0; radius <= 25600; radius *= 2 {
		hits, st := t.SearchBox(from, geo.BoxAround(pos, radius))
		total.Msgs += st.Msgs
		total.ZonesVisited += st.ZonesVisited
		total.Latency += st.Latency
		if len(hits) > 0 {
			best := hits[0]
			bestD := 1e18
			for _, id := range hits {
				h := t.U.Host(id)
				if d := geo.Haversine(pos, t.pos(h)); d < bestD {
					best, bestD = id, d
				}
			}
			return best, total, true
		}
	}
	return 0, total, false
}

// Depth returns the current tree depth (diagnostics).
func (t *Tree) Depth() int {
	var walk func(z *zone) int
	walk = func(z *zone) int {
		if z.children == nil {
			return z.depth
		}
		max := z.depth
		for _, c := range z.children {
			if d := walk(c); d > max {
				max = d
			}
		}
		return max
	}
	return walk(t.root)
}

func boxesIntersect(a, b geo.Box) bool {
	return a.MinLat <= b.MaxLat && b.MinLat <= a.MaxLat &&
		a.MinLon <= b.MaxLon && b.MinLon <= a.MaxLon
}

// HealthStats feeds telemetry.Recorder.ObserveHealth: shape gauges
// of the zone tree (pure reads via a deterministic pre-order walk).
//
//   - peers: registered population
//   - zones / leaf_zones: tree size and its frontier
//   - max_depth: deepest split so far
//   - members_per_leaf_mean: mean occupancy of populated leaf zones
func (t *Tree) HealthStats() map[string]float64 {
	var zones, leaves, populated, members float64
	deepest := 0
	var walk func(z *zone)
	walk = func(z *zone) {
		zones++
		if z.depth > deepest {
			deepest = z.depth
		}
		if z.children == nil {
			leaves++
			if len(z.members) > 0 {
				populated++
				members += float64(len(z.members))
			}
			return
		}
		for _, c := range z.children {
			walk(c)
		}
	}
	walk(t.root)
	out := map[string]float64{
		"peers":      float64(t.Size()),
		"zones":      zones,
		"leaf_zones": leaves,
		"max_depth":  float64(deepest),
	}
	if populated > 0 {
		out["members_per_leaf_mean"] = members / populated
	}
	return out
}
