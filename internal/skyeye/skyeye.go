// Package skyeye implements an information-management over-overlay in the
// style of SkyEye.KOM (Graffi et al., ICPADS 2008 — [11] in the paper): an
// aggregation tree laid over the peer population in which every peer
// periodically pushes its statistics toward coordinators; the root obtains
// the "oracle view on structured P2P systems", and capability queries
// ("find k peers with capacity ≥ x") descend only into subtrees whose
// aggregate maximum can satisfy them. This is the collection method for
// Peer Resources information in Figure 3.
package skyeye

import (
	"fmt"
	"sort"

	"unap2p/internal/metrics"
	"unap2p/internal/resources"
	"unap2p/internal/underlay"
)

// arity is the aggregation-tree fan-in: the β=4 of the SkyEye evaluation.
const arity = 4

// msgBytes is the size of one statistics update message.
const msgBytes uint64 = 120

// Aggregate summarizes a subtree.
type Aggregate struct {
	// Peers is the number of peers covered.
	Peers int
	// MeanScore and MaxScore summarize super-peer suitability.
	MeanScore, MaxScore float64
	// TotalUpKbps sums upstream capacity.
	TotalUpKbps float64
	// OnlinePeers counts currently-up peers.
	OnlinePeers int
}

type treeNode struct {
	coordinator underlay.HostID
	children    []*treeNode
	leafPeers   []underlay.HostID
	agg         Aggregate
	fresh       bool
}

// SkyEye is the over-overlay instance.
type SkyEye struct {
	U     *underlay.Network
	Table *resources.Table
	// Msgs counts "update" and "query" messages.
	Msgs *metrics.CounterSet

	root  *treeNode
	peers []underlay.HostID
}

// Build constructs the aggregation tree over the given hosts: peers are
// sorted by ID, grouped into leaves of arity, and leaf/inner coordinators
// are the first peer of each group (deterministic, as the DHT-position
// derivation in SkyEye is).
func Build(u *underlay.Network, table *resources.Table, hosts []*underlay.Host) *SkyEye {
	s := &SkyEye{U: u, Table: table, Msgs: metrics.NewCounterSet()}
	for _, h := range hosts {
		s.peers = append(s.peers, h.ID)
	}
	sort.Slice(s.peers, func(i, j int) bool { return s.peers[i] < s.peers[j] })
	if len(s.peers) == 0 {
		panic("skyeye: no peers")
	}

	// Leaves.
	var level []*treeNode
	for i := 0; i < len(s.peers); i += arity {
		end := i + arity
		if end > len(s.peers) {
			end = len(s.peers)
		}
		leaf := &treeNode{coordinator: s.peers[i], leafPeers: s.peers[i:end]}
		level = append(level, leaf)
	}
	// Inner levels.
	for len(level) > 1 {
		var next []*treeNode
		for i := 0; i < len(level); i += arity {
			end := i + arity
			if end > len(level) {
				end = len(level)
			}
			inner := &treeNode{coordinator: level[i].coordinator, children: level[i:end]}
			next = append(next, inner)
		}
		level = next
	}
	s.root = level[0]
	return s
}

// UpdateRound performs one reporting epoch: every peer sends its current
// statistics to its leaf coordinator, and every coordinator pushes its
// aggregate one level up. Message counts and traffic reflect the
// tree structure (SkyEye's O(N) messages per epoch, O(log N) per peer
// path length).
func (s *SkyEye) UpdateRound() Aggregate {
	var up func(n *treeNode) Aggregate
	up = func(n *treeNode) Aggregate {
		var agg Aggregate
		coord := s.U.Host(n.coordinator)
		if n.children == nil {
			for _, id := range n.leafPeers {
				h := s.U.Host(id)
				res := s.Table.Get(id)
				if id != n.coordinator {
					s.Msgs.Get("update").Inc()
					s.U.Send(h, coord, msgBytes)
				}
				agg.Peers++
				if h.Up {
					agg.OnlinePeers++
				}
				sc := res.Score()
				agg.MeanScore += sc // sum for now
				if sc > agg.MaxScore {
					agg.MaxScore = sc
				}
				agg.TotalUpKbps += res.UpKbps
			}
		} else {
			for _, c := range n.children {
				ca := up(c)
				if c.coordinator != n.coordinator {
					s.Msgs.Get("update").Inc()
					s.U.Send(s.U.Host(c.coordinator), coord, msgBytes)
				}
				agg.Peers += ca.Peers
				agg.OnlinePeers += ca.OnlinePeers
				agg.MeanScore += ca.MeanScore // still sums
				if ca.MaxScore > agg.MaxScore {
					agg.MaxScore = ca.MaxScore
				}
				agg.TotalUpKbps += ca.TotalUpKbps
			}
		}
		n.agg = agg
		n.fresh = true
		return agg
	}
	total := up(s.root)
	if total.Peers > 0 {
		total.MeanScore /= float64(total.Peers)
	}
	return total
}

// FindCapable returns up to k peer IDs whose resource score is at least
// minScore, descending only into subtrees whose aggregated MaxScore can
// satisfy the query (the capacity-based peer search of §3.4). It counts
// one query message per tree edge traversed and returns peers in
// ascending-ID order.
func (s *SkyEye) FindCapable(from *underlay.Host, minScore float64, k int) []underlay.HostID {
	if !s.root.fresh {
		panic("skyeye: FindCapable before any UpdateRound")
	}
	var out []underlay.HostID
	var walk func(n *treeNode)
	walk = func(n *treeNode) {
		if len(out) >= k || n.agg.MaxScore < minScore {
			return
		}
		s.Msgs.Get("query").Inc()
		s.U.Send(from, s.U.Host(n.coordinator), msgBytes)
		if n.children == nil {
			for _, id := range n.leafPeers {
				if len(out) >= k {
					return
				}
				if s.U.Host(id).Up && s.Table.Get(id).Score() >= minScore {
					out = append(out, id)
				}
			}
			return
		}
		for _, c := range n.children {
			walk(c)
		}
	}
	walk(s.root)
	return out
}

// PathLength returns the number of levels in the tree (per-peer update
// path length, O(log_β N)).
func (s *SkyEye) PathLength() int {
	depth := 1
	n := s.root
	for n.children != nil {
		depth++
		n = n.children[0]
	}
	return depth
}

func (a Aggregate) String() string {
	return fmt.Sprintf("peers=%d online=%d meanScore=%.3f maxScore=%.3f upKbps=%.0f",
		a.Peers, a.OnlinePeers, a.MeanScore, a.MaxScore, a.TotalUpKbps)
}
