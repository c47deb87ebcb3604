// Package kademlia implements a Kademlia DHT over the simulated underlay:
// XOR metric, k-buckets and iterative α-parallel FIND_NODE lookups — plus
// the proximity neighbor selection (PNS) of Kaune et al. ("Embracing
// the peer next door: Proximity in Kademlia", IEEE P2P 2008 — [17] in the
// paper), which fills k-buckets with underlay-close contacts to cut
// inter-AS DHT traffic without hurting hop counts.
//
// IDs are 64-bit (a documented down-scaling of Kademlia's 160-bit space;
// the metric's properties are bit-width independent and 64 bits are ample
// for simulated populations).
package kademlia

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"sort"

	"unap2p/internal/core"
	"unap2p/internal/lookup"
	"unap2p/internal/metrics"
	"unap2p/internal/resilience"
	"unap2p/internal/transport"
	"unap2p/internal/underlay"
)

// NodeID is a position in the 64-bit XOR keyspace.
type NodeID uint64

// Distance returns the XOR distance between two IDs.
func Distance(a, b NodeID) uint64 { return uint64(a ^ b) }

// bucketIndex returns the k-bucket index for a contact at the given XOR
// distance: the position of the highest set bit (0 = closest half-space
// ... 63 = farthest). Distance 0 (self) has no bucket and returns -1.
func bucketIndex(d uint64) int {
	if d == 0 {
		return -1
	}
	return 63 - bits.LeadingZeros64(d)
}

// Contact pairs a DHT identifier with its underlay attachment.
type Contact struct {
	ID   NodeID
	Host underlay.HostID
}

// Config tunes the DHT.
type Config struct {
	// K is the bucket size / replication factor.
	K int
}

// DefaultConfig uses the classic k=8 (scaled from 20).
func DefaultConfig() Config { return Config{K: 8} }

// alpha is the lookup parallelism, classic and compact.
const alpha = 3

// RPCBytes is the size of one request or response message, classic and
// compact.
const RPCBytes uint64 = 100

// Node is one DHT participant.
type Node struct {
	Contact
	host    *underlay.Host
	buckets table // the k-buckets
	// spares is the per-bucket replacement cache: contacts that lost the
	// insertion contest wait here (newest last) and are promoted when an
	// eviction frees a slot. Empty until the first stash, so tables built
	// before any bucket overflows carry no extra state.
	spares table
	cfg    Config
	dht    *DHT
}

// table holds one contact list per k-bucket, indexed by depth: t[63-i]
// is bucket i's list. It is only as deep as the deepest list ever written
// — random ids put a node's contacts in its ~log2(N) farthest buckets, so
// a node carries that many lists rather than 64 — and each list gets
// capacity K when first written, so it never regrows.
type table [][]Contact

// bucket returns list idx (nil when the table is not that deep). Reads
// only: write through Node.slot.
func (t table) bucket(idx int) []Contact {
	if d := 63 - idx; d < len(t) {
		return t[d]
	}
	return nil
}

// slot returns list idx of t, one of n's tables, for writing: it deepens
// the table to reach the list and gives the list capacity K on first use.
// A table's first write reserves the depth a node's nearest neighbour
// lies at among the DHT's current population, so most tables never
// regrow.
func (n *Node) slot(t *table, idx int) *[]Contact {
	d := 63 - idx
	if d >= len(*t) {
		if cap(*t) == 0 {
			*t = make(table, 0, max(d+1, bits.Len(uint(len(n.dht.sorted)))+1))
		}
		for len(*t) <= d {
			*t = append(*t, nil)
		}
	}
	s := &(*t)[d]
	if *s == nil {
		*s = make([]Contact, 0, n.cfg.K)
	}
	return s
}

// DHT is a Kademlia instance bound to an underlay via a transport.
type DHT struct {
	// T carries every RPC; U serves topology queries (proximity
	// estimates) without charging traffic.
	T   *transport.Transport
	U   *underlay.Network
	Cfg Config
	// Msgs counts RPCs ("find_node", "response") — a view of the
	// transport's per-type counters.
	Msgs *metrics.CounterSet
	// LookupTraffic accounts RPC bytes by AS pair, recorded by the
	// transport across all RPC message types.
	LookupTraffic *metrics.TrafficMatrix

	nodes  map[underlay.HostID]*Node
	byID   map[NodeID]*Node
	sorted []*Node // by NodeID, for deterministic iteration
	r      *rand.Rand
	sel    core.Selector
	// Ledger records the failure detector's evictions (see heal.go).
	resilience.Ledger

	// Hot-path scratch, reused by every call on this DHT (a DHT is driven
	// by one goroutine): near backs the slice closest returns, which is
	// therefore valid only until the next closest call; short and batch
	// are a lookup's candidate list and its current α-batch.
	near  lookup.Shortlist[Contact]
	short lookup.Shortlist[Contact]
	batch []Contact
}

// New creates an empty DHT sending through tr. A non-nil selector turns
// on proximity neighbor selection with the selector's Proximity verb as
// the distance estimate: core.RTTSelector for explicit measurement, or a
// Vivaldi/landmark predictor wrapped with core.FuncSelector to study
// prediction-driven PNS (the §3.2 collection techniques plugged into §4
// usage). A nil selector runs classic Kademlia.
func New(tr *transport.Transport, sel core.Selector, cfg Config, r *rand.Rand) *DHT {
	if cfg.K < 1 {
		panic("kademlia: K must be ≥ 1")
	}
	// LookupTraffic's joined type list is the matrix's key in every run
	// file, so it keeps naming the two RPCs the DHT no longer sends.
	return &DHT{
		T:             tr,
		U:             tr.Underlay(),
		Cfg:           cfg,
		Msgs:          tr.Counters(),
		LookupTraffic: tr.MatrixFor("find_node", "find_value", "response", "store"),
		nodes:         make(map[underlay.HostID]*Node),
		byID:          make(map[NodeID]*Node),
		r:             r,
		sel:           sel,
	}
}

// proximity is the PNS distance estimate; contacts the selector has no
// answer for are never preferred.
func (d *DHT) proximity(a, b *underlay.Host) float64 {
	if v, ok := d.sel.Proximity(a, b); ok {
		return v
	}
	return math.MaxFloat64
}

// AddNode joins a host with a random (collision-free) node ID.
func (d *DHT) AddNode(h *underlay.Host) *Node {
	if _, dup := d.nodes[h.ID]; dup {
		panic(fmt.Sprintf("kademlia: host %d already joined", h.ID))
	}
	id := NodeID(d.r.Uint64())
	for _, taken := d.byID[id]; taken; _, taken = d.byID[id] {
		id = NodeID(d.r.Uint64())
	}
	n := &Node{
		Contact: Contact{ID: id, Host: h.ID},
		host:    h,
		cfg:     d.Cfg,
		dht:     d,
	}
	d.nodes[h.ID] = n
	d.byID[id] = n
	i := sort.Search(len(d.sorted), func(i int) bool { return d.sorted[i].ID > id })
	d.sorted = slices.Insert(d.sorted, i, n)
	return n
}

// Node returns the participant on a host (nil if absent).
func (d *DHT) Node(h underlay.HostID) *Node { return d.nodes[h] }

// Nodes returns all participants in NodeID order.
func (d *DHT) Nodes() []*Node { return d.sorted }

// observe inserts a learned contact into n's routing table.
func (n *Node) observe(c Contact) {
	if c.ID == n.ID {
		return
	}
	idx := bucketIndex(Distance(n.ID, c.ID))
	b := n.buckets.bucket(idx)
	for _, have := range b {
		if have.ID == c.ID {
			return // already known
		}
	}
	if len(b) < n.cfg.K {
		s := n.slot(&n.buckets, idx)
		*s = append(*s, c)
		return
	}
	if n.dht.sel == nil {
		// Classic Kademlia drops the newcomer; we park it in the
		// replacement cache instead (a passive stash — routing behaviour
		// is unchanged until an eviction promotes it).
		n.stash(idx, c)
		return
	}
	// PNS: keep the K proximity-closest contacts for this bucket; the
	// loser of the contest goes to the replacement cache.
	prox := n.dht.proximity
	worst, worstLat := -1, -1.0
	for i, have := range b {
		lat := prox(n.host, n.dht.U.Host(have.Host))
		if lat > worstLat {
			worst, worstLat = i, lat
		}
	}
	newLat := prox(n.host, n.dht.U.Host(c.Host))
	if worst >= 0 && newLat < worstLat {
		n.stash(idx, b[worst])
		b[worst] = c
		return
	}
	n.stash(idx, c)
}

// closest returns up to k contacts from n's table nearest to target,
// nearest first, each with its distance. The result lives in DHT-owned
// scratch: it is valid until the next closest call on any node of the
// same DHT.
//
// Only the buckets that can matter are read. With h the top bit of
// n.ID^target, bucket h holds every distance below 2^h, the buckets below
// h hold distances in [2^h, 2^(h+1)), and each bucket i above h holds
// distances in [2^i, 2^(i+1)). Visiting them in that order offers the
// ranges in ascending order, so once k entries are listed nothing later
// can displace one. A table holds an ID once and distances to one target
// are unique, so the bounded insertion yields exactly the K-prefix of a
// full sort.
func (n *Node) closest(target NodeID, k int) []lookup.Entry[Contact] {
	near := &n.dht.near
	near.Reset(k)
	t := n.buckets
	h := bucketIndex(Distance(n.ID, target))
	if h >= 0 {
		offerAll(near, t.bucket(h), target)
		if len(near.Entries()) < k {
			// Buckets h-1 … 0 share one range: offer all of them.
			for d := 64 - h; d < len(t); d++ {
				offerAll(near, t[d], target)
			}
		}
	}
	// Buckets h+1, h+2, …: one range each, nearest first.
	for d := min(62-h, len(t)-1); d >= 0 && len(near.Entries()) < k; d-- {
		offerAll(near, t[d], target)
	}
	return near.Entries()
}

// offerAll offers every contact of b to near at its distance to target.
func offerAll(near *lookup.Shortlist[Contact], b []Contact, target NodeID) {
	for _, c := range b {
		near.Offer(c, Distance(c.ID, target), false)
	}
}

// BucketFill reports the total number of routing-table entries (test and
// experiment introspection).
func (n *Node) BucketFill() int {
	total := 0
	for _, b := range n.buckets {
		total += len(b)
	}
	return total
}

// Contacts returns every contact in the routing table.
func (n *Node) Contacts() []Contact {
	var all []Contact
	for _, b := range n.buckets {
		all = append(all, b...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].ID < all[j].ID })
	return all
}

// Bootstrap populates routing tables: every node observes `seeds` random
// peers, then performs a self-lookup (the standard Kademlia join), which
// both fills its own table and advertises it to the nodes it traverses.
func (d *DHT) Bootstrap(seeds int) {
	for _, n := range d.sorted {
		for s := 0; s < seeds; s++ {
			peer := d.sorted[d.r.Intn(len(d.sorted))]
			if peer != n {
				n.observe(peer.Contact)
			}
		}
	}
	for _, n := range d.sorted {
		d.Lookup(n.Host, n.ID)
	}
}

// HealthStats feeds telemetry.Recorder.ObserveHealth: structural
// gauges the probe plane samples over simulated time. All values come
// from pure reads in deterministic order (d.sorted, sorted contacts),
// so sampling never perturbs a run.
//
//   - nodes: joined population
//   - bucket_fill_mean: mean routing-table size per node
//   - rt_as_hops_mean: mean AS-path length from a node to its
//     routing-table entries — the locality PNS is supposed to buy
//   - rt_intra_as_fraction: share of routing-table entries inside the
//     owner's own AS
func (d *DHT) HealthStats() map[string]float64 {
	var fill, hops, intra, entries float64
	for _, n := range d.sorted {
		fill += float64(n.BucketFill())
		for _, c := range n.Contacts() {
			h := d.U.ASHops(n.host.AS.ID, d.U.Host(c.Host).AS.ID)
			if h < 0 {
				continue // unreachable: no defined distance
			}
			entries++
			hops += float64(h)
			if h == 0 {
				intra++
			}
		}
	}
	out := map[string]float64{"nodes": float64(len(d.sorted))}
	if len(d.sorted) > 0 {
		out["bucket_fill_mean"] = fill / float64(len(d.sorted))
	}
	if entries > 0 {
		out["rt_as_hops_mean"] = hops / entries
		out["rt_intra_as_fraction"] = intra / entries
	}
	return out
}
