// Package chord implements a Chord ring over the simulated underlay with
// the proximity techniques of Castro, Druschel, Hu and Rowstron
// ("Exploiting network proximity in peer-to-peer overlay networks",
// MSR-TR-2002-82 — [4] in the paper): structured overlays have freedom in
// *which* node fills each routing-table slot, and filling fingers with
// the underlay-closest valid candidate (proximity neighbor selection)
// cuts per-hop latency without changing the O(log N) hop bound.
//
// IDs are 64-bit; ring construction uses global knowledge (the standard
// simulation shortcut — join/stabilize protocols are not the object of
// study here, routing cost is).
package chord

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"

	"unap2p/internal/core"
	"unap2p/internal/lookup"
	"unap2p/internal/metrics"
	"unap2p/internal/resilience"
	"unap2p/internal/sim"
	"unap2p/internal/transport"
	"unap2p/internal/underlay"
)

// ID is a position on the 2^64 ring.
type ID uint64

// successorList is the number of immediate successors a classic Ring
// node keeps (fault tolerance and final-hop candidates).
const successorList = 4

// rpcBytes is the size of one routing message, classic or compact.
const rpcBytes uint64 = 100

// Node is one ring member.
type Node struct {
	ID   ID
	Host *underlay.Host
	// fingers[i] is a node in [ID+2^i, ID+2^(i+1)) — the classic table,
	// possibly proximity-optimized.
	fingers [64]*Node
	// successors are the next nodes clockwise.
	successors []*Node
}

// Ring is a Chord instance.
type Ring struct {
	// T carries routing messages; U serves proximity queries (finger
	// selection RTT estimates) without charging traffic.
	T *transport.Transport
	U *underlay.Network
	// Msgs counts "route" messages — a view of the transport's counters.
	Msgs *metrics.CounterSet

	nodes  []*Node // sorted by ID
	byHost map[underlay.HostID]*Node
	r      *rand.Rand
	sel    core.Selector
	// Ledger records the failure detector's evictions (see heal.go).
	resilience.Ledger
}

// New creates an empty ring sending through tr. A non-nil selector turns
// on proximity-selected fingers: each finger slot keeps the candidate the
// selector's Proximity verb calls closest (core.RTTSelector for Castro et
// al.'s RTT-based PNS). A nil selector builds the classic table.
func New(tr *transport.Transport, sel core.Selector, r *rand.Rand) *Ring {
	return &Ring{T: tr, U: tr.Underlay(), Msgs: tr.Counters(),
		byHost: make(map[underlay.HostID]*Node), r: r, sel: sel}
}

// AddNode places a host on the ring with a random collision-free ID.
// Call Build after all nodes are added.
func (c *Ring) AddNode(h *underlay.Host) *Node {
	if c.byHost[h.ID] != nil {
		panic(fmt.Sprintf("chord: host %d already on ring", h.ID))
	}
	id := ID(c.r.Uint64())
	for c.byID(id) != nil {
		id = ID(c.r.Uint64())
	}
	n := &Node{ID: id, Host: h}
	i := sort.Search(len(c.nodes), func(i int) bool { return c.nodes[i].ID > id })
	c.nodes = slices.Insert(c.nodes, i, n)
	c.byHost[h.ID] = n
	return n
}

func (c *Ring) byID(id ID) *Node {
	i := sort.Search(len(c.nodes), func(i int) bool { return c.nodes[i].ID >= id })
	if i < len(c.nodes) && c.nodes[i].ID == id {
		return c.nodes[i]
	}
	return nil
}

// Nodes returns the ring membership in ID order.
func (c *Ring) Nodes() []*Node { return c.nodes }

// successorOf returns the first node clockwise from id (inclusive).
func (c *Ring) successorOf(id ID) *Node {
	i := sort.Search(len(c.nodes), func(i int) bool { return c.nodes[i].ID >= id })
	if i == len(c.nodes) {
		i = 0
	}
	return c.nodes[i]
}

// Build constructs successor lists and finger tables. With PNS, each
// finger slot considers every node of its interval and keeps the
// RTT-closest — Castro et al.'s observation that constrained table slots
// still leave O(N/2^i) candidates to pick proximally from.
func (c *Ring) Build() {
	if len(c.nodes) == 0 {
		panic("chord: Build on empty ring")
	}
	for idx, node := range c.nodes {
		c.fillSuccessors(idx)
		for i := range node.fingers {
			c.fillFinger(node, i)
		}
	}
}

// fillSuccessors rebuilds the successor list of the node at ring
// position idx: the lists are positional.
func (c *Ring) fillSuccessors(idx int) {
	n, node := len(c.nodes), c.nodes[idx]
	node.successors = node.successors[:0]
	for s := 1; s <= successorList && s < n; s++ {
		node.successors = append(node.successors, c.nodes[(idx+s)%n])
	}
}

// fillFinger computes finger slot i of node: the successor of
// node.ID + 2^i, or under PNS the proximity-closest node of the slot's
// interval.
func (c *Ring) fillFinger(node *Node, i int) {
	span := ID(1) << uint(i)
	start := node.ID + span
	if c.sel != nil {
		node.fingers[i] = c.closestInInterval(node, start, span)
		return
	}
	f := c.successorOf(start)
	if f == node {
		f = nil
	}
	node.fingers[i] = f
}

// closestInInterval returns the proximity-closest node whose ID lies in
// [start, start+span) on the ring, or nil when the interval is empty of
// other nodes.
func (c *Ring) closestInInterval(from *Node, start, span ID) *Node {
	var best *Node
	bestCost := math.MaxFloat64
	// Iterate candidates clockwise from start while inside the interval:
	// one search for the first, then ring positions, each node at most once.
	n := len(c.nodes)
	at := sort.Search(n, func(i int) bool { return c.nodes[i].ID >= start })
	for k := 0; k < n; k++ {
		if at == n {
			at = 0
		}
		cur := c.nodes[at]
		if cur.ID-start >= span { // ring arithmetic wraps naturally
			break
		}
		if cur != from {
			if cost, ok := c.sel.Proximity(from.Host, cur.Host); ok && cost < bestCost {
				best, bestCost = cur, cost
			}
		}
		at++
	}
	return best
}

// LookupResult summarizes one routed lookup.
type LookupResult struct {
	// Owner is the node responsible for the key (its successor).
	Owner *Node
	// Hops is the overlay path length.
	Hops int
	// Latency sums per-hop one-way delays (greedy forwarding).
	Latency sim.Duration
	// Msgs counts routing messages.
	Msgs int
}

// Lookup routes greedily from the node on `from` toward key: at each
// step, the current node forwards to its farthest finger that does not
// overshoot the key (classic Chord routing), falling back to successors.
func (c *Ring) Lookup(from underlay.HostID, key ID) LookupResult {
	cur := c.byHost[from]
	if cur == nil {
		return LookupResult{}
	}
	var res LookupResult
	owner := c.successorOf(key)
	for cur != owner {
		next := c.nextHop(cur, key)
		if next == nil || next == cur {
			break
		}
		res.Hops++
		res.Msgs++
		sr := c.T.Send(cur.Host, next.Host, rpcBytes, "route")
		if !sr.OK {
			break // route message lost: the lookup dies at this hop
		}
		res.Latency += sr.Latency
		cur = next
		if res.Hops > len(c.nodes) {
			break // routing failure guard; cannot happen on a built ring
		}
	}
	res.Owner = cur
	return res
}

// nextHop picks the forwarding target: the farthest finger in (cur, key],
// else the first successor in (cur, key], else the owner directly.
func (c *Ring) nextHop(cur *Node, key ID) *Node {
	for i := 63; i >= 0; i-- {
		f := cur.fingers[i]
		if f != nil && lookup.InArc(uint64(f.ID), uint64(cur.ID), uint64(key)) {
			return f
		}
	}
	for _, s := range cur.successors {
		if lookup.InArc(uint64(s.ID), uint64(cur.ID), uint64(key)) {
			return s
		}
	}
	// Final hop: the immediate successor owns the key.
	if len(cur.successors) > 0 {
		return cur.successors[0]
	}
	return nil
}

// HealthStats feeds telemetry.Recorder.ObserveHealth: finger-table
// fill and locality gauges (pure reads over the sorted node slice,
// deterministic).
//
//   - nodes: ring population
//   - finger_fill_mean: mean populated finger slots per node
//   - finger_as_hops_mean: mean AS-path length from a node to its
//     fingers — what proximity finger selection optimizes
//   - finger_intra_as_fraction: share of fingers inside the owner's AS
func (c *Ring) HealthStats() map[string]float64 {
	var fill, hops, intra, entries float64
	for _, n := range c.nodes {
		for _, f := range n.fingers {
			if f == nil {
				continue
			}
			fill++
			h := c.U.ASHops(n.Host.AS.ID, f.Host.AS.ID)
			if h < 0 {
				continue
			}
			entries++
			hops += float64(h)
			if h == 0 {
				intra++
			}
		}
	}
	out := map[string]float64{"nodes": float64(len(c.nodes))}
	if len(c.nodes) > 0 {
		out["finger_fill_mean"] = fill / float64(len(c.nodes))
	}
	if entries > 0 {
		out["finger_as_hops_mean"] = hops / entries
		out["finger_intra_as_fraction"] = intra / entries
	}
	return out
}
