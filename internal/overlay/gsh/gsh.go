// Package gsh implements a Leopard-style locality-aware structured
// overlay (Yu, Lee, Zhang: "Leopard: A locality aware peer-to-peer system
// with no hot spot", NETWORKING 2005 — [33] in the paper): content and
// peer identifiers are produced by Geographically Scoped Hashing, a
// "special hashing function" that combines a location prefix with a
// content hash. Content registers in the publisher's geographic zone and
// its ancestors; queries resolve in the requester's zone first and widen
// scope only on miss — so lookups for nearby content stay local and no
// single global rendezvous node becomes a hot spot.
package gsh

import (
	"fmt"
	"hash/fnv"
	"sort"

	"unap2p/internal/core"
	"unap2p/internal/geo"
	"unap2p/internal/metrics"
	"unap2p/internal/resilience"
	"unap2p/internal/sim"
	"unap2p/internal/transport"
	"unap2p/internal/underlay"
)

// ZoneCode encodes a geographic zone at some level: 2 bits per level
// (quadrant splits of the lat/lon space), most-significant first.
type ZoneCode uint64

// zoneOf computes the zone code of a coordinate at the given level.
func zoneOf(c geo.Coord, level int) ZoneCode {
	minLat, maxLat := -90.0, 90.0
	minLon, maxLon := -180.0, 180.0
	var code ZoneCode
	for l := 0; l < level; l++ {
		code <<= 2
		midLat := (minLat + maxLat) / 2
		midLon := (minLon + maxLon) / 2
		if c.Lat >= midLat {
			code |= 2
			minLat = midLat
		} else {
			maxLat = midLat
		}
		if c.Lon >= midLon {
			code |= 1
			minLon = midLon
		} else {
			maxLon = midLon
		}
	}
	return code
}

// MaxLevel is the deepest zone level (2·MaxLevel bits of location
// prefix, up to 256 leaf zones); level 0 is the whole world.
const MaxLevel = 4

// msgBytes is the size of one registry/lookup message.
const msgBytes uint64 = 96

// Key identifies a content item.
type Key uint64

// HashKey derives a key from a content name.
func HashKey(name string) Key {
	h := fnv.New64a()
	h.Write([]byte(name))
	return Key(h.Sum64())
}

// node is one overlay participant.
type node struct {
	host   *underlay.Host
	suffix uint64 // random-ish hash component of the GSH identifier
	// registry[level] holds key → holders for entries this node is
	// responsible for at that scope.
	registry []map[Key][]underlay.HostID
	// Load counts registry operations served (the hot-spot measure).
	load uint64
}

// Overlay is a GSH instance.
type Overlay struct {
	// T carries every registry/lookup message; GSH needs no other view of
	// the underlay.
	T *transport.Transport
	// Msgs counts "register", "lookup", "response" messages (a view of
	// the transport's per-type counters).
	Msgs *metrics.CounterSet

	nodes map[underlay.HostID]*node
	// members[level][zone] lists member hosts of a zone, sorted for
	// deterministic rendezvous.
	members []map[ZoneCode][]underlay.HostID
	sel     core.Selector
	// Ledger records the failure detector's evictions (see heal.go).
	resilience.Ledger
}

// New creates an empty overlay sending through tr. The selector's
// Position verb supplies the coordinates GSH hashes into zone prefixes
// (a core.GeoSelector for perfect GPS fixes); a nil selector — or one
// with no position answer — falls back to ground truth.
func New(tr *transport.Transport, sel core.Selector) *Overlay {
	o := &Overlay{
		T:       tr,
		Msgs:    tr.Counters(),
		nodes:   make(map[underlay.HostID]*node),
		members: make([]map[ZoneCode][]underlay.HostID, MaxLevel+1),
		sel:     sel,
	}
	for l := range o.members {
		o.members[l] = make(map[ZoneCode][]underlay.HostID)
	}
	return o
}

// pos returns h's position as the selector believes it, falling back to
// ground truth when no selector answers.
func (o *Overlay) pos(h *underlay.Host) geo.Coord {
	if o.sel != nil {
		if c, ok := o.sel.Position(h); ok {
			return c
		}
	}
	return geo.Coord{Lat: h.Lat, Lon: h.Lon}
}

// Join registers a host in every zone level containing its position. The
// GSH identifier is (zone prefix, hash of the host id).
func (o *Overlay) Join(h *underlay.Host) {
	if _, dup := o.nodes[h.ID]; dup {
		panic(fmt.Sprintf("gsh: host %d already joined", h.ID))
	}
	hh := fnv.New64a()
	fmt.Fprintf(hh, "gsh-node-%d", h.ID)
	n := &node{
		host:     h,
		suffix:   hh.Sum64(),
		registry: make([]map[Key][]underlay.HostID, MaxLevel+1),
	}
	for l := range n.registry {
		n.registry[l] = make(map[Key][]underlay.HostID)
	}
	o.nodes[h.ID] = n
	pos := o.pos(h)
	for l := 0; l <= MaxLevel; l++ {
		z := zoneOf(pos, l)
		ids := append(o.members[l][z], h.ID)
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		o.members[l][z] = ids
	}
}

// Size returns the number of joined peers.
func (o *Overlay) Size() int { return len(o.nodes) }

// responsible returns the zone member owning a key at a level via
// rendezvous (highest-random-weight) hashing over member suffixes —
// deterministic and membership-change-local.
func (o *Overlay) responsible(level int, z ZoneCode, k Key) (underlay.HostID, bool) {
	ids := o.members[level][z]
	if len(ids) == 0 {
		return 0, false
	}
	best := ids[0]
	bestW := rendezvousWeight(o.nodes[ids[0]].suffix, uint64(k))
	for _, id := range ids[1:] {
		if w := rendezvousWeight(o.nodes[id].suffix, uint64(k)); w > bestW {
			best, bestW = id, w
		}
	}
	return best, true
}

func rendezvousWeight(suffix, key uint64) uint64 {
	x := suffix ^ key
	// splitmix-style mix for a uniform weight.
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// PublishStats reports the cost of a Publish.
type PublishStats struct {
	Msgs    int
	Latency sim.Duration
}

// Publish registers holder as a source for key in the holder's zone at
// every level (leaf zone up to the world root) — GSH's scoped
// registration.
func (o *Overlay) Publish(holder *underlay.Host, k Key) PublishStats {
	var st PublishStats
	pos := o.pos(holder)
	for l := MaxLevel; l >= 0; l-- {
		z := zoneOf(pos, l)
		resp, ok := o.responsible(l, z, k)
		if !ok {
			continue
		}
		rn := o.nodes[resp]
		if resp != holder.ID {
			st.Msgs++
			res := o.T.Send(holder, rn.host, msgBytes, "register")
			if !res.OK {
				continue // registration lost at this level (fault injection)
			}
			st.Latency += res.Latency
		}
		rn.load++
		// Deduplicate holders per key.
		hs := rn.registry[l]
		found := false
		for _, have := range hs[k] {
			if have == holder.ID {
				found = true
				break
			}
		}
		if !found {
			hs[k] = append(hs[k], holder.ID)
		}
	}
	return st
}

// LookupStats reports the cost and outcome of a Lookup.
type LookupStats struct {
	// Level is the zone level the answer came from (MaxLevel = own leaf
	// zone, 0 = world root); -1 on miss.
	Level int
	// Msgs and Latency account the probes (request+response per level).
	Msgs    int
	Latency sim.Duration
}

// Lookup resolves key from the requester's position: it asks the
// responsible node of its own leaf zone first and widens scope one level
// at a time — queries for locally available content never leave the
// neighborhood.
func (o *Overlay) Lookup(requester *underlay.Host, k Key) ([]underlay.HostID, LookupStats) {
	st := LookupStats{Level: -1}
	pos := o.pos(requester)
	for l := MaxLevel; l >= 0; l-- {
		z := zoneOf(pos, l)
		resp, ok := o.responsible(l, z, k)
		if !ok {
			continue
		}
		rn := o.nodes[resp]
		if resp != requester.ID {
			st.Msgs += 2
			res := o.T.RoundTrip(requester, rn.host,
				msgBytes, msgBytes, "lookup", "response")
			if !res.OK {
				continue // query timed out at this level; widen scope
			}
			st.Latency += res.Latency
		}
		rn.load++
		if holders := rn.registry[l][k]; len(holders) > 0 {
			st.Level = l
			out := append([]underlay.HostID(nil), holders...)
			return out, st
		}
	}
	return nil, st
}

// MaxLoad returns the highest registry load across nodes and the mean —
// the hot-spot metric ("no hot spot" means max stays near the mean).
func (o *Overlay) MaxLoad() (max uint64, mean float64) {
	var sum uint64
	for _, n := range o.nodes {
		sum += n.load
		if n.load > max {
			max = n.load
		}
	}
	if len(o.nodes) > 0 {
		mean = float64(sum) / float64(len(o.nodes))
	}
	return max, mean
}

// GlobalLookup resolves key through the world-root zone only — the plain
// single-rendezvous DHT behaviour GSH is compared against.
func (o *Overlay) GlobalLookup(requester *underlay.Host, k Key) ([]underlay.HostID, LookupStats) {
	st := LookupStats{Level: -1}
	resp, ok := o.responsible(0, 0, k)
	if !ok {
		return nil, st
	}
	rn := o.nodes[resp]
	if resp != requester.ID {
		st.Msgs = 2
		r := o.T.RoundTrip(requester, rn.host,
			msgBytes, msgBytes, "lookup", "response")
		if !r.OK {
			return nil, st // the single rendezvous timed out
		}
		st.Latency = r.Latency
	}
	rn.load++
	if holders := rn.registry[0][k]; len(holders) > 0 {
		st.Level = 0
		return append([]underlay.HostID(nil), holders...), st
	}
	return nil, st
}

// ResetLoad clears per-node load counters (between experiment phases).
func (o *Overlay) ResetLoad() {
	for _, n := range o.nodes {
		n.load = 0
	}
}

// HealthStats feeds telemetry.Recorder.ObserveHealth: registry
// load balance across the hierarchy (pure reads, deterministic).
//
//   - peers: joined population
//   - load_max / load_mean: registry load distribution
//   - load_hotspot_ratio: max/mean — 1.0 is perfectly balanced, large
//     values mean a node (typically the top of the hierarchy) is a
//     hot spot
func (o *Overlay) HealthStats() map[string]float64 {
	max, mean := o.MaxLoad()
	out := map[string]float64{
		"peers":     float64(o.Size()),
		"load_max":  float64(max),
		"load_mean": mean,
	}
	if mean > 0 {
		out["load_hotspot_ratio"] = float64(max) / mean
	}
	return out
}
